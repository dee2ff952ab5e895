// ScServer — the multi-client split-computing inference server
// (DESIGN.md §8).
//
//   client threads --submit()--> RequestQueue --batcher--> workers
//        ^                                                    |
//        '-- reply / future<InferenceResult> <-- scatter per-task logits
//
// The server owns one RequestQueue (admission control, tenant quotas,
// DRR fairness) and one worker per replica; every worker pops that
// queue. Placing tenants across several queues is the fleet layer's job
// (src/fleet, DESIGN.md §12).
//
// Each worker owns one model replica (identical weights, see
// core::copy_model_state), one channel session and one ScDeployment, so
// the compute path runs lock-free; all workers share the runtime thread
// pool and its workspaces for their tensor kernels. A batch is executed
// via ScDeployment::infer_batch: per-request wire messages, per-request
// quantisation, per-request CRC error isolation — so any request's result
// is bitwise identical to a sequential infer() on the same model,
// whatever batch it rode in. Streaming requests (submit_stream) run the
// three-stage infer_stream pipeline instead, settling one chunk future
// per sample row as the server stage emits it.
//
// Lifecycle layer (DESIGN.md §8):
//  * Deadlines — a coalesced batch is filtered right before dispatch;
//    requests that aged out in the wait window settle with
//    DeadlineExceededError (phase kDispatch) and never reach the model.
//  * Autoscaling — an optional background controller grows and shrinks
//    the worker pool between min/max replicas from the backlog-per-replica
//    signal, with consecutive-tick hysteresis. New replicas are minted
//    from AutoscaleConfig::make_replica + core::copy_model_state(replica
//    0) + Channel::fork; retired workers park their replica and are
//    resurrected cheaply on the next growth.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <thread>

#include "serve/batcher.hpp"
#include "serve/slo_controller.hpp"
#include "serve/stats.hpp"

namespace mtlsplit::serve {

/// Replica autoscaling. Disabled by default; when enabled the server runs
/// one controller thread that samples the backlog each interval and
/// adds/retires workers under hysteresis.
struct AutoscaleConfig {
  bool enabled = false;
  size_t min_replicas = 1;  ///< lower bound on active workers
  size_t max_replicas = 4;  ///< upper bound on active workers
  /// Scale up when (queued + in-service) / active_replicas stays at or
  /// above this for hysteresis_ticks consecutive samples.
  double scale_up_backlog = 4.0;
  /// Scale down when the same signal stays at or below this.
  double scale_down_backlog = 0.5;
  int64_t interval_us = 20000;  ///< controller sampling period
  int hysteresis_ticks = 2;     ///< consecutive samples before acting
  /// Factory for a structurally-identical model (weights are overwritten
  /// via core::copy_model_state from replica 0). Required when enabled.
  std::function<std::unique_ptr<core::MtlSplitModel>()> make_replica;
};

struct ServeConfig {
  BatchingPolicy batching;
  /// Admission control of the server's queue (policy, capacity,
  /// per-class depth limits, DRR quantum, tenant quotas).
  AdmissionConfig admission;
  AutoscaleConfig autoscale;
  /// Closed-loop SLO control (serve/slo_controller.hpp): when enabled the
  /// server runs one controller thread that drains the windowed latency
  /// histogram each interval and steers the queue's depth cap
  /// (RequestQueue::set_capacity) and the autoscaler's scale-up threshold
  /// from measured p99-vs-target slack.
  /// Requires admission.capacity >= 1 (the cap needs a bounded queue).
  SloConfig slo;
  /// Z_b wire encoding, as in ScDeployment.
  sc::ScDeploymentConfig deployment;
};

class ScServer {
 public:
  /// Starts one server worker per replica. Replicas must be structurally
  /// identical and hold identical weights (core::copy_model_state); they
  /// are switched to inference mode here. Each worker forks its own
  /// channel session from @p link. With autoscaling enabled, replica 0 is
  /// the weight source for minted replicas and must outlive the server.
  ScServer(std::vector<core::MtlSplitModel*> replicas, const sc::Channel& link,
           sc::DeviceProfile edge, sc::DeviceProfile server,
           ServeConfig cfg = {});

  /// Session-injection variant: one caller-owned channel session per
  /// replica (e.g. sc::FaultInjectChannel for fault drills). Sessions
  /// must outlive the server and must not be shared between replicas
  /// (Channel is not thread-safe). Autoscaling is unavailable here — the
  /// server has no base link to fork new sessions from.
  ScServer(std::vector<core::MtlSplitModel*> replicas,
           std::vector<sc::Channel*> sessions, sc::DeviceProfile edge,
           sc::DeviceProfile server, ServeConfig cfg = {});

  ~ScServer();
  ScServer(const ScServer&) = delete;
  ScServer& operator=(const ScServer&) = delete;

  /// Enqueues one request ([B, C, H, W], B >= 1; a client-side batch is
  /// served as one request). Admission
  /// follows cfg.admission: deadline and quota refusals deliver
  /// DeadlineExceededError / ThrottledError through the future; at
  /// capacity, Block exerts backpressure while Reject/ShedOldest deliver
  /// RejectedError instead of ever blocking. Throws std::runtime_error
  /// after shutdown().
  std::future<sc::InferenceResult> submit(Tensor x, SubmitOptions opts = {});
  /// submit() delivering the outcome to @p reply instead of a future: run
  /// once, by the worker that served the request or inside this call for
  /// an admission refusal, never under the queue's lock (serve::Reply).
  void submit(Tensor x, SubmitOptions opts, Reply reply);

  /// Streaming request: each sample row of @p x gets its own future,
  /// settled in row order as the pipelined deployment emits chunks.
  std::vector<std::future<sc::InferenceResult>> submit_stream(
      Tensor x, SubmitOptions opts = {});

  /// Stops the autoscaler and intake, drains every accepted request,
  /// joins the workers. Idempotent.
  void shutdown();

  /// Statistics snapshot (including the rejected/shed/expired/throttled
  /// tallies); final once shutdown() returned. Since the telemetry tree landed this is a pure read of
  /// the tree — every field is derivable from telemetry_tree().
  ServeStats stats() const;

  /// The server's metrics tree: every layer (queues, batcher, wire
  /// sessions, autoscaler, SLO controller) reports here by path.
  const telemetry::Registry& telemetry_tree() const { return registry_; }
  /// JSON export of the whole tree (telemetry::Registry::to_json).
  std::string telemetry_json() const { return registry_.to_json(); }

  /// Active (non-retired) workers. Moves with the autoscaler while it
  /// runs.
  size_t num_workers() const;
  const BatchingPolicy& batching() const { return cfg_.batching; }

  /// Fleet-rebuild hook (src/fleet): mints @p n additional replicas —
  /// weights copied bitwise from replica 0 via core::copy_model_state,
  /// each with its own forked channel session (parked slots are
  /// resurrected first, like an autoscaler grow, but no autoscaler
  /// scale-up is counted). Uses @p factory, or
  /// AutoscaleConfig::make_replica when @p factory is empty. Requires
  /// the channel-fork constructor. Returns the number actually added
  /// (0 after shutdown); throws std::invalid_argument when no factory is
  /// available or the server cannot fork sessions.
  size_t add_replicas(
      size_t n,
      const std::function<std::unique_ptr<core::MtlSplitModel>()>& factory =
          {});

 private:
  /// One worker slot: replica + channel session + deployment + thread.
  /// Slots are created at start() or minted by the autoscaler; a retired
  /// slot parks (thread exits, deployment kept) and may be resurrected.
  struct Worker {
    std::unique_ptr<core::MtlSplitModel> minted_model;  // autoscaler-owned
    std::unique_ptr<sc::Channel> owned_session;
    std::unique_ptr<sc::ScDeployment> deployment;
    std::atomic<bool> retired{false};
    bool parked = false;  // thread has exited; guarded by scale_mu_
    std::thread thread;
  };

  void start(std::vector<core::MtlSplitModel*>& replicas,
             std::vector<sc::Channel*>& sessions);
  void worker_loop(Worker& w);
  void serve_batch(Worker& w, std::vector<Request>& batch);
  void serve_plain(Worker& w, std::vector<Request>& batch);
  void serve_stream_request(Worker& w, Request& r);

  void autoscale_loop();
  void slo_loop();
  size_t active_workers_locked() const;
  void try_scale_up();  // locked; swallows mint failures
  /// Unpark-or-mint one worker using @p make; the common grow path behind
  /// the autoscaler and add_replicas.
  void grow_locked(
      const std::function<std::unique_ptr<core::MtlSplitModel>()>& make);
  void scale_down_locked();
  /// Re-publishes the replica-census gauge; call with scale_mu_ held (or
  /// before any worker thread exists).
  void update_replica_gauge_locked();

  ServeConfig cfg_;
  sc::DeviceProfile edge_, server_;
  std::unique_ptr<sc::Channel> base_link_;  // fork source; null if injected
  /// Sessions forked at construction for the initial workers (fork-path
  /// constructor only; unique_ptr keeps addresses stable for deployments).
  std::vector<std::unique_ptr<sc::Channel>> owned_boot_sessions_;
  core::MtlSplitModel* prototype_ = nullptr;  // weight source for minting
  uint64_t next_session_ = 0;                 // fork seed sequence
  /// The metrics tree. Declared before queue_/workers_/stats_ so every
  /// layer holding metric references is destroyed before the tree.
  telemetry::Registry registry_;
  RequestQueue queue_{cfg_.admission};
  std::atomic<int64_t> busy_{0};  ///< popped, not yet settled
  StatsCollector stats_{&registry_};
  /// Channel sessions bound into registry_; unbound at shutdown so
  /// injected sessions outliving the server stop writing into it.
  std::vector<sc::Channel*> bound_sessions_;
  /// Guards workers_ (slot creation/park/unpark) against the autoscaler.
  mutable std::mutex scale_mu_;
  std::condition_variable scale_cv_;
  std::vector<std::unique_ptr<Worker>> workers_;
  int up_ticks_ = 0, down_ticks_ = 0;  // controller hysteresis state
  std::thread controller_;
  std::unique_ptr<SloController> slo_;
  std::thread slo_thread_;
  /// The autoscaler's live scale-up threshold: AutoscaleConfig's static
  /// value until the SLO controller starts steering it.
  std::atomic<double> slo_scale_up_backlog_{0.0};
  std::atomic<bool> stopped_{false};
};

}  // namespace mtlsplit::serve
