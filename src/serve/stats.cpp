#include "serve/stats.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "tensor/check.hpp"

namespace mtlsplit::serve {
namespace {

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void store_max(std::atomic<int64_t>& slot, int64_t v) {
  int64_t cur = slot.load(std::memory_order_relaxed);
  while (cur < v &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

double ServeStats::throughput_rps() const {
  const int64_t done = saturating_add(completed, failed);
  return wall_s > 0.0 ? static_cast<double>(done) / wall_s : 0.0;
}

double ServeStats::percentile(double p) const {
  // Clamp monotone across the three independent estimators: with few
  // samples their parabolic markers can momentarily cross.
  const double p50 = lat_p50.value();
  const double p95 = std::max(p50, lat_p95.value());
  const double p99 = std::max(p95, lat_p99.value());
  if (p == 50.0) return p50;
  if (p == 95.0) return p95;
  if (p == 99.0) return p99;
  check_arg(false, "ServeStats::percentile: only p50/p95/p99 are tracked");
  return 0.0;
}

double ServeStats::goodput_bytes_s() const {
  return wire_time_s > 0.0
             ? static_cast<double>(wire_bytes) / wire_time_s
             : 0.0;
}

double ServeStats::mean_batch_size() const {
  if (batches == 0) return 0.0;
  // Both counters saturate at INT64_MAX, so a plain + here could overflow
  // (signed UB) exactly in the long-run case the saturation exists for.
  return static_cast<double>(saturating_add(completed, failed)) /
         static_cast<double>(batches);
}

StatsCollector::StatsCollector(telemetry::Registry* registry)
    : owned_(registry ? nullptr : std::make_unique<telemetry::Registry>()),
      reg_(registry ? registry : owned_.get()) {
  telemetry::Registry& r = *reg_;
  submitted_ = &r.counter("serve/requests/submitted");
  completed_ = &r.counter("serve/requests/completed");
  failed_ = &r.counter("serve/requests/failed");
  expired_dispatch_ = &r.counter("serve/requests/expired_dispatch");
  scale_ups_ = &r.counter("serve/autoscale/ups");
  scale_downs_ = &r.counter("serve/autoscale/downs");
  batches_ = &r.counter("serve/batch/count");
  batch_hist_.reserve(static_cast<size_t>(ServeStats::kBatchHistMax) + 1);
  for (int64_t b = 0; b <= ServeStats::kBatchHistMax; ++b)
    batch_hist_.push_back(
        &r.counter("serve/batch/hist/" + std::to_string(b)));
  wire_bytes_ = &r.counter("sc/link/wire_bytes");
  wire_bytes_raw_ = &r.counter("sc/link/wire_bytes_raw");
  retransmits_ = &r.counter("sc/link/retransmits");
  fec_repaired_ = &r.counter("sc/link/fec_repaired");
  undelivered_ = &r.counter("sc/link/undelivered");
  wire_time_s_ = &r.gauge("sc/link/wire_time_s");
  latency_ = &r.histogram("serve/requests/latency");
  latency_window_ = &r.histogram("serve/requests/latency_window");
  // Same paths the RequestQueue binds — idempotent registration makes
  // them one shared tally, read here and written there.
  queue_rejected_ = &r.counter(kQueuePrefix + "/queue/rejected");
  queue_shed_ = &r.counter(kQueuePrefix + "/queue/shed");
  queue_expired_ = &r.counter(kQueuePrefix + "/queue/expired");
  queue_throttled_ = &r.counter(kQueuePrefix + "/queue/throttled");
  link_window_ = &r.gauge(kQueuePrefix + "/link/window");
  replicas_ = &r.gauge(kQueuePrefix + "/replicas");
}

void StatsCollector::on_submit() {
  submitted_->inc();
  int64_t expected = 0;
  first_submit_ns_.compare_exchange_strong(expected, now_ns(),
                                           std::memory_order_relaxed);
}

void StatsCollector::on_batch(int64_t batch_size, const sc::WireTally& wire) {
  check_arg(batch_size >= 1, "StatsCollector: empty batch");
  batches_->inc();
  wire_bytes_->add(wire.bytes);
  wire_bytes_raw_->add(wire.bytes_raw);
  retransmits_->add(wire.retransmits);
  fec_repaired_->add(wire.fec_repaired);
  undelivered_->add(wire.undelivered);
  wire_time_s_->add(wire.time_s);
  if (wire.window > 0.0) link_window_->set(wire.window);
  const int64_t bucket = std::min(batch_size, ServeStats::kBatchHistMax);
  batch_hist_[static_cast<size_t>(bucket)]->inc();
}

void StatsCollector::on_request(double e2e_latency_s, bool ok) {
  if (ok)
    completed_->inc();
  else
    failed_->inc();
  latency_->observe(e2e_latency_s);
  latency_window_->observe(e2e_latency_s);
  store_max(last_done_ns_, now_ns());
}

void StatsCollector::on_expired(int64_t n) { expired_dispatch_->add(n); }

void StatsCollector::on_scale(bool up) {
  (up ? scale_ups_ : scale_downs_)->inc();
}

void StatsCollector::on_replicas(int64_t n) {
  replicas_->set(static_cast<double>(n));
}

telemetry::HistSnapshot StatsCollector::drain_latency_window() {
  return latency_window_->drain();
}

ServeStats StatsCollector::snapshot() const {
  ServeStats out;
  out.completed = completed_->value();
  out.failed = failed_->value();
  out.scale_ups = scale_ups_->value();
  out.scale_downs = scale_downs_->value();
  out.batches = batches_->value();
  out.wire_bytes = wire_bytes_->value();
  out.wire_bytes_raw = wire_bytes_raw_->value();
  out.retransmits = retransmits_->value();
  out.fec_repaired = fec_repaired_->value();
  out.undelivered = undelivered_->value();
  out.wire_time_s = wire_time_s_->value();

  out.rejected = queue_rejected_->value();
  out.shed = queue_shed_->value();
  out.throttled = queue_throttled_->value();
  out.expired =
      saturating_add(expired_dispatch_->value(), queue_expired_->value());
  out.link_window = link_window_->value();

  // The compatibility histogram keeps its lazily-grown shape: sized to
  // the highest bucket ever hit, plus one.
  int64_t hi = -1;
  for (int64_t b = 0; b <= ServeStats::kBatchHistMax; ++b)
    if (batch_hist_[static_cast<size_t>(b)]->value() > 0) hi = b;
  if (hi >= 0) {
    out.batch_hist.assign(static_cast<size_t>(hi) + 1, 0);
    for (int64_t b = 0; b <= hi; ++b)
      out.batch_hist[static_cast<size_t>(b)] =
          batch_hist_[static_cast<size_t>(b)]->value();
  }

  const telemetry::HistSnapshot lat = latency_->snapshot();
  out.lat_p50 = lat.q50;
  out.lat_p95 = lat.q95;
  out.lat_p99 = lat.q99;
  out.max_latency_s = lat.max;

  const int64_t first = first_submit_ns_.load(std::memory_order_relaxed);
  const int64_t last = last_done_ns_.load(std::memory_order_relaxed);
  if (first != 0 && saturating_add(out.completed, out.failed) > 0)
    out.wall_s = static_cast<double>(last - first) * 1e-9;
  return out;
}

}  // namespace mtlsplit::serve
