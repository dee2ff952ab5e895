// Distributed-deep-learning deployment simulators (paper §2.1 and §4.2):
//
//  * LoC  — Local-only Computing: everything on the edge device; feasible
//           only when the N single-task networks fit edge memory.
//  * RoC  — Remote-only Computing: the raw input crosses the channel, the
//           whole model runs on the server.
//  * SC   — Split Computing (MTL-Split): the shared backbone runs on the
//           edge, the flattened Z_b crosses the channel through the real
//           wire format, the task heads run on the server.
//
// The simulators *actually execute* the model (so outputs can be checked
// bit-for-bit against monolithic execution) while latency is modelled
// analytically from device FLOP throughputs and the channel — the same
// style of analysis the paper performs in §4.2.
#pragma once

#include <exception>
#include <functional>

#include "graph/executor.hpp"
#include "mtl/mtl_model.hpp"
#include "sc/channel.hpp"
#include "sc/device.hpp"
#include "sc/quantize.hpp"
#include "sc/wire_codec.hpp"

namespace mtlsplit::sc {

/// Where each latency component of one inference went.
///
/// The edge/wire/server components are the paper's §4.2 analytic model
/// (device FLOP throughput + channel bandwidth); measured_wall_s is the
/// wall-clock this process actually spent executing the inference, so the
/// analytic claim can always be checked against a real measurement.
struct LatencyBreakdown {
  double edge_compute_s = 0.0;
  double server_compute_s = 0.0;
  /// This inference's wire messages; wire.time_s is the transfer term.
  /// All zero for LoC, which sends nothing.
  WireTally wire;
  /// Measured wall-clock. For ScDeployment::infer this covers the whole
  /// call; for a pipelined stream it is the time from stream start until
  /// this item left the server stage.
  double measured_wall_s = 0.0;
  /// Analytic end-to-end latency (the §4.2 model, not the measurement).
  double total_s() const {
    return edge_compute_s + wire.time_s + server_compute_s;
  }
};

/// One inference outcome: per-task logits plus its latency model.
struct InferenceResult {
  std::vector<Tensor> logits;
  LatencyBreakdown latency;
};

enum class ZbEncoding { kFloat32, kInt8 };

/// How ScDeployment executes the model (graph/executor.hpp).
enum class GraphExec : uint8_t {
  kEager = 0,  ///< Module::forward per layer (the training path)
  kExact = 1,  ///< compiled plan, bitwise identical to eager (default)
  kFused = 2   ///< compiled plan with BatchNorm folding (~1e-5 tolerance)
};

struct ScDeploymentConfig {
  ZbEncoding encoding = ZbEncoding::kFloat32;
  /// WireCodec::kEntropy wraps every serialised Z_b in an entropy-coded
  /// frame (sc/wire_codec.hpp) before it crosses the channel. Coding is
  /// lossless, so served logits stay bitwise identical to kRaw.
  WireCodec codec = WireCodec::kRaw;
  /// Execution engine for the backbone and heads. kExact keeps the served
  /// logits bitwise identical to eager forward (the serving invariant) —
  /// the compiler only removes allocation/zero-fill/cache overhead. The
  /// deployment silently falls back to eager while the model is in
  /// training mode or if a module cannot be lowered.
  GraphExec graph = GraphExec::kExact;
  /// Compiled-plan store. When null the deployment builds a private one;
  /// ScServer injects a shared cache so every worker replica reuses the
  /// plans replica 0 compiled (replicas share weights bitwise).
  std::shared_ptr<graph::PlanCache> plan_cache;
};

/// Outcome of a pipelined stream inference (ScDeployment::infer_stream).
struct StreamResult {
  /// Per-input results, in input order; outputs are bit-identical to
  /// calling infer() on each input sequentially.
  std::vector<InferenceResult> results;
  /// Wall-clock actually spent on the whole stream (stages overlapped).
  double measured_wall_s = 0.0;
  /// Analytic latency had the items run strictly one after another.
  double analytic_serial_s = 0.0;
  /// Analytic latency of the three-stage pipeline: stage j of item i
  /// starts once item i left stage j-1 AND item i-1 left stage j.
  double analytic_pipelined_s = 0.0;
};

/// One request's slice of a batched serving inference (infer_batch).
struct BatchItem {
  InferenceResult result;    ///< valid when ok()
  std::exception_ptr error;  ///< set when this request's wire message failed
  bool ok() const { return error == nullptr; }
};

/// Outcome of a batched serving inference: one item per input sample.
struct BatchResult {
  std::vector<BatchItem> items;
  /// Wall-clock for the whole batch.
  double measured_wall_s = 0.0;
  /// Sum of the batch's messages (one per sample), failed ones included.
  WireTally wire;
};

/// Split-computing executor for an MtlSplitModel.
///
/// Not internally synchronised: the model caches activations during
/// forward, so concurrent infer()/infer_batch() calls on deployments that
/// share one model race. Concurrent callers (the serve/ worker pool, the
/// cross-deployment stress tests) give each thread its own model replica
/// (core::copy_model_state) and channel session (Channel::fork); the
/// runtime thread pool underneath is shared safely.
class ScDeployment {
 public:
  ScDeployment(core::MtlSplitModel& model, Channel& channel,
               DeviceProfile edge, DeviceProfile server,
               ScDeploymentConfig cfg = {});

  /// Runs one batch end to end: edge backbone -> serialise -> channel ->
  /// deserialise -> server heads. Throws if the channel corrupted the
  /// message (CRC failure), like a real transport would.
  InferenceResult infer(const Tensor& x);

  /// Batched serving entry point: each sample of the [B, C, H, W] input is
  /// an independent client request. The backbone runs once on the whole
  /// batch, but every sample's Z_b slice is quantised and serialised into
  /// its OWN wire message — each client owns its transmission, and
  /// per-sample quantisation parameters keep the outputs bitwise identical
  /// to per-request infer(). The heads then run once over the samples that
  /// survived the wire. A CRC failure poisons only the request whose
  /// message corrupted: its item carries the exception, the rest of the
  /// batch completes normally.
  BatchResult infer_batch(const Tensor& x);

  /// Runs a stream of inputs through the split as a real three-stage
  /// pipeline: while item i's Z_b crosses the wire, item i+1 is already on
  /// the edge backbone and item i-1 on the server heads — the overlapped
  /// execution the paper's Fig. 1 deployment implies but infer() serialises.
  /// Stage threads share the runtime pool for their tensor kernels.
  /// Rethrows the first stage error (e.g. a CRC failure) after draining.
  StreamResult infer_stream(const std::vector<Tensor>& inputs);

  /// Called from the server stage as item @p index completes, before the
  /// stream returns — this is how ScServer routes per-chunk results back
  /// through streaming request futures while later items are still in
  /// flight. The callback may move from @p item (results[index] then
  /// keeps only the residue). Items after a stage failure are never
  /// emitted; the error is rethrown once the pipeline drains.
  using StreamItemFn = std::function<void(size_t index, InferenceResult& item)>;
  StreamResult infer_stream(const std::vector<Tensor>& inputs,
                            const StreamItemFn& on_item);

  /// Wire traffic of the most recent infer / infer_batch / infer_stream
  /// call, reset on entry and summed message by message as each crosses
  /// the link — before its decode can throw. A call that fails after
  /// sending (a CRC failure, a post-wire head error) loses its result, but
  /// its messages still crossed the link; the serve layer reads them here
  /// so failed work keeps its link accounting. Not meaningful while a
  /// stream is in flight.
  const WireTally& last_traffic() const { return last_traffic_; }

  /// Edge-side working-set estimate (backbone params + activations).
  double edge_memory_bytes(const Shape& image_shape) const;

 private:
  /// Serialises @p zb (per cfg_.encoding), frames it (per cfg_.codec),
  /// pushes it through the channel, and decodes the receiver's view.
  /// Sets @p wire to the message's tally and adds it to last_traffic_
  /// before decoding. Throws on CRC/frame corruption.
  Tensor wire_roundtrip(const Tensor& zb, WireTally& wire);

  /// Compiles backbone + head plans for per-sample image shape {C,H,W}
  /// (no-op when eager, training, already compiled for this shape, or a
  /// previous compile failed). Always runs on the calling thread BEFORE
  /// any pipeline threads spawn, so the executors are immutable by the
  /// time stages read them.
  void ensure_compiled(const Tensor& x);
  /// Backbone via the compiled plan when one matches @p x, eager otherwise.
  Tensor backbone_fwd(const Tensor& x);
  /// All task heads via their compiled plans (or eager fallback).
  std::vector<Tensor> heads_fwd(const Tensor& zb);

  core::MtlSplitModel* model_;
  Channel* channel_;
  DeviceProfile edge_, server_;
  ScDeploymentConfig cfg_;
  WireTally last_traffic_;

  // Compiled-execution state. One executor per pipeline stage: the
  // backbone executor serves stage 1 (the edge thread during a stream),
  // the head executors serve stage 3 (the caller) — no executor is ever
  // touched by two threads at once. The plans themselves are immutable
  // and may be shared across deployments via cfg_.plan_cache.
  Shape compiled_image_shape_;  ///< {C,H,W} the executors were built for
  bool graph_failed_ = false;   ///< a lowering failed; stay eager
  /// Bumped whenever the model re-enters training after a compile, so
  /// post-training recompiles never hit a stale cached plan.
  int plan_generation_ = 0;
  std::unique_ptr<graph::GraphExecutor> backbone_exec_;
  std::vector<std::unique_ptr<graph::GraphExecutor>> head_execs_;
};

/// Remote-only executor: ships the raw input, runs everything server-side.
class RocDeployment {
 public:
  RocDeployment(core::MtlSplitModel& model, Channel& channel,
                DeviceProfile server);

  InferenceResult infer(const Tensor& x);

 private:
  core::MtlSplitModel* model_;
  Channel* channel_;
  DeviceProfile server_;
};

/// Local-only executor: runs everything on the edge device.
class LocDeployment {
 public:
  LocDeployment(core::MtlSplitModel& model, DeviceProfile edge);

  /// Throws std::runtime_error when the model's working set exceeds edge
  /// memory (the §4.2 infeasibility case).
  InferenceResult infer(const Tensor& x);

  /// Working-set estimate for the whole model on the edge.
  double memory_bytes(const Shape& image_shape) const;
  bool feasible(const Shape& image_shape) const {
    return edge_.fits(memory_bytes(image_shape));
  }

 private:
  core::MtlSplitModel* model_;
  DeviceProfile edge_;
};

}  // namespace mtlsplit::sc
