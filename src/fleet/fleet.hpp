// FleetRouter — a simulated multi-node serving fleet with SWIM-style
// failure detection and automatic replica rebuild (DESIGN.md §12).
//
//   clients --submit()--> FleetRouter --rendezvous--> node_k: ScServer
//                              |                         ^
//                              '-- prober: ping/ack -----'   (lossy link)
//
// Each node is one full ScServer (its own shards, workers, admission
// control and telemetry), all serving bitwise-identical replica weights
// copied from one prototype. The router owns three concerns the single-
// server world never had:
//
//  * Liveness. A prober thread sends one ping per node per interval over
//    a lossy sc::Channel; the frame is CRC-wrapped (sc/ping.hpp), so an
//    erased or corrupted probe decodes to nothing and counts as a missed
//    ack — a degraded link and a dead node are indistinguishable, which
//    is exactly the ambiguity SWIM's alive→suspect→dead machine absorbs.
//    Incarnation numbers implement refutation: a node that sees itself
//    suspected at incarnation i answers i+1, which overrides the
//    suspicion (MembershipTable precedence: Dead is terminal; otherwise
//    higher incarnation wins; at equal incarnation Suspect > Alive).
//
//  * Placement. Tenants map onto live nodes by rendezvous (highest-
//    random-weight) hashing of client_id — when a node dies only its own
//    tenants move, and they spread across all survivors instead of
//    dogpiling one neighbour.
//
//  * Rebuild + exactly-once settlement. Every outstanding request is a
//    Pending entry on exactly one node's list, moved only under that
//    node's mutex. A killed node black-holes: its results are never
//    forwarded (the "process" can no longer answer). When the prober
//    declares it dead, its list is swapped out atomically and each
//    orphan is settled exactly once — transparently re-submitted to a
//    survivor when the request is idempotent and has failover budget
//    left, else failed with the typed NodeFailedError. Replica capacity
//    lost with the node is re-minted on the survivors through
//    ScServer::add_replicas (copy_model_state + Channel::fork), so the
//    rebuilt fleet serves the same logits bitwise.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sc/channel.hpp"
#include "serve/server.hpp"

namespace mtlsplit::fleet {

/// SWIM membership states. Suspect nodes still take traffic (the detector
/// may be wrong — that is the point of the state); Dead is terminal.
enum class NodeState : uint8_t { kAlive = 0, kSuspect = 1, kDead = 2 };

struct MembershipEntry {
  NodeState state = NodeState::kAlive;
  uint64_t incarnation = 0;
};

/// The gossip-merge half of SWIM: apply() folds an observation into the
/// table under the standard precedence rules, suppressing anything stale.
/// Thread-safe; the table is the only membership state readers consult.
class MembershipTable {
 public:
  explicit MembershipTable(size_t nodes) : entries_(nodes) {}

  /// Folds (state, incarnation) for @p node. Returns true when the
  /// observation won and the entry changed; false when it was suppressed
  /// as stale. Precedence: Dead always wins and is terminal; otherwise a
  /// higher incarnation wins regardless of state; at equal incarnation
  /// Suspect overrides Alive (an unrefuted suspicion stands) but never
  /// the reverse — clearing a suspicion requires the refuter to bump its
  /// incarnation.
  bool apply(size_t node, NodeState state, uint64_t incarnation);

  MembershipEntry get(size_t node) const;
  size_t size() const { return entries_.size(); }
  /// Node ids whose state is not Dead, ascending.
  std::vector<size_t> live() const;

 private:
  mutable std::mutex mu_;
  std::vector<MembershipEntry> entries_;
};

/// Rendezvous (highest-random-weight) hash: picks the node in @p nodes
/// maximising a mixed hash of (client_id, node). Every observer with the
/// same live set picks the same node, and removing one node only moves
/// the tenants that hashed onto it. Throws std::invalid_argument when
/// @p nodes is empty.
size_t rendezvous_pick(uint64_t client_id, const std::vector<size_t>& nodes);

struct SwimConfig {
  int64_t ping_interval_us = 2000;  ///< one probe round per node per tick
  /// Consecutive missed acks before a node turns Suspect.
  int suspect_after = 2;
  /// Additional consecutive misses (beyond suspect_after) before Dead.
  int dead_after = 2;
};

struct FleetConfig {
  size_t nodes = 3;
  size_t replicas_per_node = 1;
  SwimConfig swim;
  /// Per-node server configuration (batching, admission, sharding, ...).
  serve::ServeConfig serve;
  /// Data-plane channel each node's workers fork sessions from.
  sc::ChannelConfig data_link;
  /// Control-plane channel the prober pings over — typically lossy
  /// (LinkModel) so liveness is probabilistic, like a real network.
  sc::ChannelConfig control_link;
  /// Factory for structurally-identical replicas; weights are always
  /// overwritten bitwise from the prototype. Required.
  std::function<std::unique_ptr<core::MtlSplitModel>()> make_replica;
  /// Re-mint a dead node's replica capacity on the survivors.
  bool rebuild = true;
  /// Transparent re-submits an idempotent request may consume before it
  /// settles with NodeFailedError (bounds cascading-failure work).
  int max_failovers = 2;
};

struct FleetSubmitOptions {
  serve::SubmitOptions base;
  /// Idempotent requests are transparently re-submitted to a survivor
  /// when their node dies; non-idempotent ones settle with
  /// NodeFailedError instead (the caller cannot tell whether the dead
  /// node applied the side effect).
  bool idempotent = true;
};

/// Settlement outcome for a request whose node died before answering and
/// that could not (or must not) be transparently re-submitted.
class NodeFailedError : public std::runtime_error {
 public:
  NodeFailedError(size_t node, const std::string& what)
      : std::runtime_error(what), node_(node) {}
  size_t node() const noexcept { return node_; }

 private:
  size_t node_;
};

/// Counter snapshot; pure reads of the telemetry tree.
struct FleetStats {
  int64_t submitted = 0;
  int64_t settled_value = 0;   ///< futures settled with a result
  int64_t settled_error = 0;   ///< futures settled with any exception
  int64_t failovers = 0;       ///< transparent re-submits after a death
  int64_t deaths = 0;          ///< nodes declared dead
  int64_t replicas_reminted = 0;
  int64_t probes_sent = 0;
  int64_t acks_received = 0;
};

class FleetRouter {
 public:
  /// Boots cfg.nodes ScServer nodes, each holding cfg.replicas_per_node
  /// replicas minted from cfg.make_replica with weights copied bitwise
  /// from @p prototype (which must outlive the router), then starts the
  /// per-node settler threads and the SWIM prober.
  FleetRouter(core::MtlSplitModel& prototype, sc::DeviceProfile edge,
              sc::DeviceProfile server, FleetConfig cfg);
  ~FleetRouter();
  FleetRouter(const FleetRouter&) = delete;
  FleetRouter& operator=(const FleetRouter&) = delete;

  /// Routes one request onto the live node rendezvous hashing picks for
  /// opts.base.client_id. The returned future settles exactly once:
  /// with the inference result, with the node's own typed admission /
  /// deadline error, or with NodeFailedError after an unrecoverable node
  /// death. Throws std::runtime_error after shutdown() and
  /// NodeFailedError when no live node remains.
  std::future<sc::InferenceResult> submit(Tensor x,
                                          FleetSubmitOptions opts = {});

  /// Chaos hook: the node stops answering pings and stops delivering
  /// results (black-hole — in-flight work on it stays pending until the
  /// prober declares the node dead and fails it over). Idempotent.
  void kill_node(size_t k);

  /// Membership as the prober currently believes it.
  NodeState node_state(size_t k) const { return membership_.get(k).state; }
  uint64_t incarnation(size_t k) const {
    return membership_.get(k).incarnation;
  }
  std::vector<size_t> live_nodes() const { return membership_.live(); }

  /// Active workers on node @p k (moves with rebuild / autoscaling).
  size_t node_replicas(size_t k) const;

  /// The node submit() would pick for @p client_id right now.
  size_t route(uint64_t client_id) const;

  size_t num_nodes() const { return nodes_.size(); }

  /// Stops the prober and settlers, shuts every node down (live nodes
  /// drain), and settles every still-pending future — forwarded results
  /// for live nodes, NodeFailedError for killed ones. Idempotent.
  void shutdown();

  FleetStats stats() const;
  const telemetry::Registry& telemetry_tree() const { return registry_; }
  std::string telemetry_json() const { return registry_.to_json(); }

  /// Per-node server access (tests / bench drill assertions).
  const serve::ScServer& node_server(size_t k) const;

 private:
  /// One outstanding request. Lives on exactly one node's pending list;
  /// every move happens under that node's mutex, which is what makes
  /// settlement exactly-once across failover.
  struct Pending {
    std::promise<sc::InferenceResult> out;
    std::future<sc::InferenceResult> in;
    Tensor x;  ///< retained so a failover can re-submit the same input
    serve::SubmitOptions opts;
    bool idempotent = true;
    int failovers_left = 0;
  };

  struct Node {
    std::vector<std::unique_ptr<core::MtlSplitModel>> models;
    std::unique_ptr<serve::ScServer> server;
    std::unique_ptr<sc::Channel> control;  ///< prober-thread only

    std::mutex mu;  ///< guards pending + accepting
    std::vector<Pending> pending;
    bool accepting = true;
    std::atomic<bool> killed{false};

    // Prober-thread-only SWIM state.
    uint64_t self_incarnation = 0;  ///< the simulated node's own view
    int misses = 0;

    std::thread settler;

    telemetry::Gauge* state_g = nullptr;
    telemetry::Gauge* incarnation_g = nullptr;
    telemetry::Gauge* replicas_g = nullptr;
    telemetry::Counter* submitted_c = nullptr;
    telemetry::Counter* probes_missed_c = nullptr;
  };

  void settler_loop(size_t k);
  /// Forwards every ready inner future of node @p k to its outer promise
  /// and drops the entry. Caller holds nodes_[k]->mu.
  void sweep_locked(Node& n);
  void settle_value(Pending& p);

  void prober_loop();
  /// One ping/ack round trip to node @p k over its control channel.
  /// Returns true when a CRC-valid ack came back (and folds the carried
  /// incarnation into the membership table).
  bool probe_node(size_t k, uint32_t seq);
  void declare_dead(size_t k);
  void rebuild_from(size_t dead);
  /// Settles or transparently re-submits one orphan of dead node @p dead.
  void failover(Pending p, size_t dead);
  void publish_node_gauges(size_t k);

  FleetConfig cfg_;
  telemetry::Registry registry_;
  MembershipTable membership_;
  std::vector<std::unique_ptr<Node>> nodes_;

  telemetry::Counter* submitted_c_ = nullptr;
  telemetry::Counter* settled_value_c_ = nullptr;
  telemetry::Counter* settled_error_c_ = nullptr;
  telemetry::Counter* failovers_c_ = nullptr;
  telemetry::Counter* deaths_c_ = nullptr;
  telemetry::Counter* reminted_c_ = nullptr;
  telemetry::Counter* probes_sent_c_ = nullptr;
  telemetry::Counter* acks_c_ = nullptr;
  telemetry::Gauge* live_nodes_g_ = nullptr;

  std::mutex wake_mu_;  ///< pairs with wake_cv_ for prober + settlers
  std::condition_variable wake_cv_;
  std::atomic<bool> stopped_{false};

  std::thread prober_;
  std::vector<std::thread> reapers_;  ///< prober-thread writes, shutdown joins
};

}  // namespace mtlsplit::fleet
