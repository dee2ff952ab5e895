// Serving statistics: throughput, end-to-end latency percentiles, the
// batch-size histogram (did dynamic batching actually coalesce?), wire
// traffic, admission outcomes (rejected / shed / expired / throttled),
// and lifecycle counters (autoscale events, the replica census).
//
// Since the telemetry tree landed (serve/telemetry.hpp, DESIGN.md §11)
// the collector is a *view builder*, not a ledger: every tally lives in a
// telemetry::Registry — the same counters the queues, channels and
// batcher update directly — and StatsCollector merely (a) registers the
// canonical metric paths, (b) offers the historical on_* entry points
// that forward to tree metrics, and (c) renders the plain-value
// ServeStats compatibility snapshot by reading the tree. There is no
// collector mutex left on the hot path: every update is a per-metric
// atomic (or one-histogram spinlock).
//
// Memory is bounded for long-lived servers: latency percentiles are P²
// streaming estimates (serve/p2_quantile.hpp), the batch-size histogram
// is capped with a final overflow bucket, and every additive counter uses
// saturating arithmetic so a months-long run clamps at INT64_MAX instead
// of wrapping negative.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sc/link.hpp"
#include "serve/p2_quantile.hpp"
#include "serve/telemetry.hpp"

namespace mtlsplit::serve {

using telemetry::saturating_add;

/// Telemetry prefix of the server's one queue: its admission counters
/// (<prefix>/queue), batcher (<prefix>/batcher), wire sessions
/// (<prefix>/link) and replica census (<prefix>/replicas). Readers depend
/// on the exact name (perfbench reads <prefix>/link/packets and
/// Registry::counter_value throws on a missing path), so it stays
/// "serve/shard0" until they move.
inline const std::string kQueuePrefix = "serve/shard0";

struct ServeStats {
  /// Batch sizes >= kBatchHistMax land in the final (overflow) bucket, so
  /// the histogram never grows past kBatchHistMax + 1 entries.
  static constexpr int64_t kBatchHistMax = 64;

  int64_t completed = 0;  ///< requests whose future received logits
  int64_t failed = 0;     ///< requests whose future received an exception
  int64_t rejected = 0;   ///< requests refused at admission (Reject policy)
  int64_t shed = 0;       ///< queued requests evicted (ShedOldest policy)
  int64_t expired = 0;    ///< requests settled with DeadlineExceededError
  int64_t throttled = 0;  ///< requests refused by a tenant quota
  int64_t scale_ups = 0;   ///< autoscaler replica additions
  int64_t scale_downs = 0; ///< autoscaler replica retirements
  int64_t batches = 0;    ///< server batches executed
  int64_t wire_bytes = 0; ///< total Z_b bytes that crossed the link
  /// Serialised Z_b bytes before the wire codec; equals wire_bytes when
  /// the codec is off, and the denominator of the compression ratio when
  /// it is on.
  int64_t wire_bytes_raw = 0;
  int64_t retransmits = 0;  ///< link-layer retransmissions across the wire
  /// Data packets rebuilt from FEC parity across the wire — loss that
  /// cost zero extra round trips.
  int64_t fec_repaired = 0;
  /// Data packets the link erased after FEC + retransmit both failed;
  /// every one surfaced as a typed wire failure on its request.
  int64_t undelivered = 0;
  /// Total modelled link time across the wire (seconds); the denominator
  /// of goodput_bytes_s().
  double wire_time_s = 0.0;
  /// Sender congestion window the workers' link sessions reported last
  /// (packets; 0 when no LinkModel is configured).
  double link_window = 0.0;
  /// Wall-clock from the first accepted request to the last completion.
  double wall_s = 0.0;
  /// batch_hist[b] = number of server batches that coalesced b requests;
  /// the final bucket aggregates every batch of kBatchHistMax or more.
  std::vector<int64_t> batch_hist;
  /// P² streaming estimates of end-to-end (enqueue -> future fulfilled)
  /// latency; constant memory however many requests were served.
  P2Quantile lat_p50{0.50}, lat_p95{0.95}, lat_p99{0.99};
  double max_latency_s = 0.0;

  /// Finished requests per wall-clock second.
  double throughput_rps() const;
  /// Delivered wire bytes per second of modelled link time (0 until any
  /// wire time has been accounted).
  double goodput_bytes_s() const;
  /// Latency percentile estimate; @p p must be one of the tracked
  /// quantiles 50, 95, 99. Estimates are clamped monotone in p.
  double percentile(double p) const;
  double mean_batch_size() const;
};

/// Registers the canonical serving metric paths in a telemetry tree and
/// renders ServeStats snapshots from it. Thread-safe: every on_* entry
/// point updates per-metric atomics only.
///
/// Paths (docs/serving.md has the full table):
///   serve/requests/{submitted,completed,failed,expired_dispatch}
///   serve/requests/latency, serve/requests/latency_window   (histograms)
///   serve/batch/count, serve/batch/hist/<0..64>
///   serve/autoscale/{ups,downs}
///   sc/link/{wire_bytes,wire_bytes_raw,retransmits,fec_repaired,
///            undelivered}, sc/link/wire_time_s               (gauge)
///   serve/shard0/queue/{rejected,shed,expired,throttled}
///   serve/shard0/link/window, serve/shard0/replicas          (gauges)
///
/// The queue counters are the *same* metrics the server's RequestQueue
/// binds (registration is idempotent), so rejected/shed/throttled and
/// queue expiries are tallied once, at the queue, and simply read here.
class StatsCollector {
 public:
  /// Registers into @p registry, or into a private tree when null (the
  /// standalone-collector mode unit tests use).
  explicit StatsCollector(telemetry::Registry* registry = nullptr);

  /// Marks wall-clock start at the first accepted request.
  void on_submit();
  /// One server batch executed and the wire traffic it sent. A zero
  /// window (no LinkModel) leaves the window gauge alone.
  void on_batch(int64_t batch_size, const sc::WireTally& wire);
  void on_request(double e2e_latency_s, bool ok);
  /// Requests that aged out between pop and dispatch (ExpiryPhase
  /// kDispatch) — admission/queue expiries are tallied by the queue.
  void on_expired(int64_t n);
  /// One autoscaler event: a replica added (up) or retired (!up).
  void on_scale(bool up);
  /// Publishes the active replica count ("serve/shard0/replicas").
  void on_replicas(int64_t n);

  /// Takes and resets the windowed latency histogram — the SLO
  /// controller's per-interval feedback signal. The cumulative
  /// "serve/requests/latency" histogram is unaffected.
  telemetry::HistSnapshot drain_latency_window();

  telemetry::Registry& registry() { return *reg_; }
  const telemetry::Registry& registry() const { return *reg_; }

  /// The ServeStats compatibility view: every field is read straight off
  /// the telemetry tree (no collector-private state beyond the wall-clock
  /// endpoints).
  ServeStats snapshot() const;

 private:
  std::unique_ptr<telemetry::Registry> owned_;
  telemetry::Registry* reg_;
  telemetry::Counter* submitted_;
  telemetry::Counter* completed_;
  telemetry::Counter* failed_;
  telemetry::Counter* expired_dispatch_;
  telemetry::Counter* scale_ups_;
  telemetry::Counter* scale_downs_;
  telemetry::Counter* batches_;
  std::vector<telemetry::Counter*> batch_hist_;  // kBatchHistMax + 1
  telemetry::Counter* wire_bytes_;
  telemetry::Counter* wire_bytes_raw_;
  telemetry::Counter* retransmits_;
  telemetry::Counter* fec_repaired_;
  telemetry::Counter* undelivered_;
  telemetry::Gauge* wire_time_s_;
  telemetry::Histogram* latency_;
  telemetry::Histogram* latency_window_;
  telemetry::Counter* queue_rejected_;
  telemetry::Counter* queue_shed_;
  telemetry::Counter* queue_expired_;
  telemetry::Counter* queue_throttled_;
  telemetry::Gauge* link_window_;
  telemetry::Gauge* replicas_;
  // Wall-clock endpoints (steady-clock ns); first_submit_ns_ == 0 means
  // no request was ever submitted.
  std::atomic<int64_t> first_submit_ns_{0};
  std::atomic<int64_t> last_done_ns_{0};
};

}  // namespace mtlsplit::serve
