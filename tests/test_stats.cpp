// Serving statistics: the P² streaming-quantile estimator (accuracy
// against exact percentiles on uniform / lognormal / adversarially sorted
// streams, constant memory), saturating counters, and the bounded
// batch-size histogram (DESIGN.md §8).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <type_traits>

#include "serve/stats.hpp"

namespace mtlsplit {
namespace {

using serve::P2Quantile;
using serve::saturating_add;
using serve::ServeStats;
using serve::StatsCollector;

/// Exact nearest-rank percentile of a sample vector, q in (0, 1).
double exact_quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

void expect_close_quantiles(const std::vector<double>& data,
                            double rel_tol, const char* label) {
  for (const double q : {0.5, 0.95, 0.99}) {
    P2Quantile est(q);
    for (const double x : data) est.add(x);
    const double exact = exact_quantile(data, q);
    // Tolerance scales with the spread of the distribution around the
    // quantile, not its absolute location (robust for skewed streams).
    const double spread = exact_quantile(data, 0.99) -
                          exact_quantile(data, 0.05);
    EXPECT_NEAR(est.value(), exact, rel_tol * spread)
        << label << " q=" << q << " over " << data.size() << " samples";
    EXPECT_EQ(est.count(), static_cast<int64_t>(data.size()));
  }
}

// ---------------------------------------------------------------- P2Quantile

TEST(P2Quantile, ExactForFewerThanFiveSamples) {
  P2Quantile p50(0.5);
  EXPECT_DOUBLE_EQ(p50.value(), 0.0);  // empty
  p50.add(7.0);
  EXPECT_DOUBLE_EQ(p50.value(), 7.0);
  p50.add(1.0);
  p50.add(9.0);  // sorted: 1, 7, 9 -> nearest-rank p50 = 7
  EXPECT_DOUBLE_EQ(p50.value(), 7.0);
  P2Quantile p99(0.99);
  for (const double x : {4.0, 2.0, 8.0, 6.0}) p99.add(x);
  EXPECT_DOUBLE_EQ(p99.value(), 8.0);  // max of the first four
}

TEST(P2Quantile, UniformStreamMatchesExactPercentiles) {
  std::mt19937_64 gen(17);
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  std::vector<double> data(10000);
  for (double& x : data) x = dist(gen);
  expect_close_quantiles(data, 0.02, "uniform");
}

TEST(P2Quantile, LognormalStreamMatchesExactPercentiles) {
  // Heavy right tail: the regime latency distributions live in.
  std::mt19937_64 gen(29);
  std::lognormal_distribution<double> dist(0.0, 0.75);
  std::vector<double> data(10000);
  for (double& x : data) x = dist(gen);
  expect_close_quantiles(data, 0.05, "lognormal");
}

TEST(P2Quantile, AdversarialSortedStreamsStayWithinTolerance) {
  // Monotone streams are the classic P² stress: every observation lands
  // in an extreme cell, so the markers must chase a moving front.
  std::vector<double> asc(10000);
  for (size_t i = 0; i < asc.size(); ++i)
    asc[i] = static_cast<double>(i) / 1000.0;
  expect_close_quantiles(asc, 0.05, "sorted-ascending");
  std::vector<double> desc(asc.rbegin(), asc.rend());
  expect_close_quantiles(desc, 0.05, "sorted-descending");
}

TEST(P2Quantile, ConstantMemoryWhateverTheStreamLength) {
  // The estimator is a fixed-size value type: no heap, no growth. This is
  // the property that lets ServeStats live in a months-long server.
  static_assert(std::is_trivially_copyable_v<P2Quantile>,
                "P2Quantile must be a flat value type (no heap state)");
  static_assert(sizeof(P2Quantile) <= 5 * 4 * sizeof(double) + 32,
                "P2Quantile must hold five markers, not samples");
  P2Quantile est(0.99);
  std::mt19937_64 gen(5);
  std::exponential_distribution<double> dist(1.0);
  for (int i = 0; i < 200000; ++i) est.add(dist(gen));
  EXPECT_EQ(est.count(), 200000);
  EXPECT_GT(est.value(), 0.0);
}

TEST(P2Quantile, RejectsDegenerateQuantile) {
  EXPECT_THROW(P2Quantile(0.0), std::invalid_argument);
  EXPECT_THROW(P2Quantile(1.0), std::invalid_argument);
}

// ------------------------------------------------------------ saturating_add

TEST(SaturatingAdd, ClampsInsteadOfWrapping) {
  const int64_t max = std::numeric_limits<int64_t>::max();
  const int64_t min = std::numeric_limits<int64_t>::min();
  EXPECT_EQ(saturating_add(max, 1), max);
  EXPECT_EQ(saturating_add(max, max), max);
  EXPECT_EQ(saturating_add(min, -1), min);
  EXPECT_EQ(saturating_add(max - 5, 3), max - 2);
  EXPECT_EQ(saturating_add(40, 2), 42);
}

// ---------------------------------------------------------------- ServeStats

TEST(ServeStats, CountersSaturateOnLongRuns) {
  const int64_t max = std::numeric_limits<int64_t>::max();
  StatsCollector c;
  c.on_batch(1, {.bytes = max, .bytes_raw = max});
  c.on_batch(1, {.bytes = max, .bytes_raw = max});  // plain += would wrap
  const ServeStats s = c.snapshot();
  EXPECT_EQ(s.wire_bytes, max);
  EXPECT_EQ(s.wire_bytes_raw, max);
  EXPECT_EQ(s.batches, 2);
}

TEST(ServeStats, WireBytesSplitCompressedRawAndRetransmits) {
  StatsCollector c;
  // Codec on: compressed bytes crossed, raw bytes would have.
  c.on_batch(2, {.bytes = 600, .bytes_raw = 1000, .retransmits = 3});
  c.on_batch(1, {.bytes = 400, .bytes_raw = 800});
  // Codec off: raw mirrors the on-wire bytes.
  c.on_batch(1, {.bytes = 250, .bytes_raw = 250});
  const ServeStats s = c.snapshot();
  EXPECT_EQ(s.wire_bytes, 600 + 400 + 250);
  EXPECT_EQ(s.wire_bytes_raw, 1000 + 800 + 250);
  EXPECT_EQ(s.retransmits, 3);
}

TEST(ServeStats, WireTallyAccumulatesFecAndGoodput) {
  // Full wire accounting: FEC repairs and erasures accumulate, modelled
  // link time sums into the goodput denominator, and the window tracks
  // the most recent batch's sender state.
  StatsCollector c;
  c.on_batch(2, {.bytes = 1000,
                 .bytes_raw = 1600,
                 .retransmits = 2,
                 .fec_repaired = 3,
                 .undelivered = 1,
                 .time_s = 0.5,
                 .window = 8.0});
  c.on_batch(1, {.bytes = 500,
                 .bytes_raw = 700,
                 .fec_repaired = 1,
                 .time_s = 0.25,
                 .window = 4.0});
  const ServeStats s = c.snapshot();
  EXPECT_EQ(s.wire_bytes, 1500);
  EXPECT_EQ(s.wire_bytes_raw, 2300);
  EXPECT_EQ(s.retransmits, 2);
  EXPECT_EQ(s.fec_repaired, 4);
  EXPECT_EQ(s.undelivered, 1);
  EXPECT_DOUBLE_EQ(s.wire_time_s, 0.75);
  EXPECT_DOUBLE_EQ(s.link_window, 4.0);  // latest batch wins
  EXPECT_DOUBLE_EQ(s.goodput_bytes_s(), 1500.0 / 0.75);
  // A wire-less batch leaves the link fields alone and the goodput
  // denominator unchanged.
  c.on_batch(1, {.bytes = 100, .bytes_raw = 100});
  const ServeStats s2 = c.snapshot();
  EXPECT_EQ(s2.fec_repaired, 4);
  EXPECT_DOUBLE_EQ(s2.link_window, 4.0);
  EXPECT_DOUBLE_EQ(s2.wire_time_s, 0.75);
}

TEST(ServeStats, GoodputIsZeroWithoutWireTime) {
  StatsCollector c;
  c.on_batch(1, {.bytes = 100, .bytes_raw = 100});
  EXPECT_DOUBLE_EQ(c.snapshot().goodput_bytes_s(), 0.0);
}

TEST(ServeStats, BatchHistogramIsBoundedWithOverflowBucket) {
  StatsCollector c;
  c.on_batch(3, {});
  c.on_batch(ServeStats::kBatchHistMax + 500, {});  // lands in overflow
  c.on_batch(100000, {});
  const ServeStats s = c.snapshot();
  ASSERT_EQ(s.batch_hist.size(),
            static_cast<size_t>(ServeStats::kBatchHistMax) + 1);
  EXPECT_EQ(s.batch_hist[3], 1);
  EXPECT_EQ(s.batch_hist[static_cast<size_t>(ServeStats::kBatchHistMax)], 2);
}

TEST(ServeStats, SnapshotMemoryDoesNotGrowWithRequestCount) {
  StatsCollector c;
  std::mt19937_64 gen(3);
  std::lognormal_distribution<double> lat(-6.0, 0.5);
  for (int i = 0; i < 10000; ++i) {
    c.on_submit();
    c.on_batch(4, {.bytes = 256, .bytes_raw = 256});
    c.on_request(lat(gen), true);
  }
  const ServeStats s = c.snapshot();
  EXPECT_EQ(s.completed, 10000);
  // The only dynamically sized member is the (bounded) histogram.
  EXPECT_LE(s.batch_hist.size(),
            static_cast<size_t>(ServeStats::kBatchHistMax) + 1);
  // Percentile estimates are ordered and plausible.
  EXPECT_GT(s.percentile(50), 0.0);
  EXPECT_LE(s.percentile(50), s.percentile(95));
  EXPECT_LE(s.percentile(95), s.percentile(99));
  EXPECT_LE(s.percentile(99), s.max_latency_s);
}

TEST(ServeStats, PercentileRestrictedToTrackedQuantiles) {
  ServeStats s;
  EXPECT_THROW((void)s.percentile(75.0), std::invalid_argument);
}

TEST(ServeStats, MeanBatchSizeSaturatesInsteadOfOverflowing) {
  // Regression: completed and failed individually saturate at INT64_MAX,
  // so a saturated server computing completed + failed with plain + was
  // signed overflow — UB — exactly in the long-run case the saturation
  // exists for. The ratio must clamp, not wrap negative.
  const int64_t max = std::numeric_limits<int64_t>::max();
  ServeStats s;
  s.completed = max;
  s.failed = 7;
  s.batches = 2;
  EXPECT_DOUBLE_EQ(s.mean_batch_size(), static_cast<double>(max) / 2.0);
  s.failed = max;
  s.wall_s = 10.0;
  EXPECT_DOUBLE_EQ(s.mean_batch_size(), static_cast<double>(max) / 2.0);
  EXPECT_DOUBLE_EQ(s.throughput_rps(), static_cast<double>(max) / 10.0);
  EXPECT_GE(s.mean_batch_size(), 0.0);
}

TEST(ServeStats, SnapshotIsDerivableFromTheTelemetryTree) {
  // The ServeStats compatibility view must be a pure function of the
  // telemetry tree: every field equals a direct read of the registry the
  // collector registered into, including the P² latency marker state
  // byte for byte.
  telemetry::Registry reg;
  StatsCollector c(&reg);
  const sc::WireTally w{.bytes = 900,
                        .bytes_raw = 1500,
                        .retransmits = 4,
                        .fec_repaired = 2,
                        .undelivered = 1,
                        .time_s = 0.5,
                        .window = 6.0};
  for (int i = 0; i < 3; ++i) c.on_submit();
  c.on_batch(2, w);
  c.on_batch(1, w);
  c.on_request(0.010, true);
  c.on_request(0.020, true);
  c.on_request(0.500, false);
  c.on_expired(2);
  c.on_scale(true);
  c.on_scale(false);
  c.on_replicas(2);
  // The queue writes the shared queue counters directly.
  reg.counter("serve/shard0/queue/rejected").add(5);
  reg.counter("serve/shard0/queue/shed").add(1);
  reg.counter("serve/shard0/queue/expired").add(4);
  reg.counter("serve/shard0/queue/throttled").add(5);

  const ServeStats s = c.snapshot();
  EXPECT_EQ(s.completed, reg.counter_value("serve/requests/completed"));
  EXPECT_EQ(s.failed, reg.counter_value("serve/requests/failed"));
  EXPECT_EQ(s.completed, 2);
  EXPECT_EQ(s.failed, 1);
  EXPECT_EQ(s.rejected, 5);
  EXPECT_EQ(s.shed, 1);
  EXPECT_EQ(s.throttled, 5);
  // expired = dispatch-phase expiries + the queue's expiries.
  EXPECT_EQ(s.expired,
            reg.counter_value("serve/requests/expired_dispatch") + 4);
  EXPECT_EQ(s.scale_ups, reg.counter_value("serve/autoscale/ups"));
  EXPECT_EQ(s.scale_downs, reg.counter_value("serve/autoscale/downs"));
  EXPECT_EQ(s.batches, reg.counter_value("serve/batch/count"));
  EXPECT_EQ(s.wire_bytes, reg.counter_value("sc/link/wire_bytes"));
  EXPECT_EQ(s.wire_bytes, 1800);
  EXPECT_EQ(s.wire_bytes_raw, reg.counter_value("sc/link/wire_bytes_raw"));
  EXPECT_EQ(s.retransmits, reg.counter_value("sc/link/retransmits"));
  EXPECT_EQ(s.fec_repaired, reg.counter_value("sc/link/fec_repaired"));
  EXPECT_EQ(s.undelivered, reg.counter_value("sc/link/undelivered"));
  EXPECT_DOUBLE_EQ(s.wire_time_s, reg.gauge_value("sc/link/wire_time_s"));
  EXPECT_DOUBLE_EQ(s.link_window, reg.gauge_value("serve/shard0/link/window"));
  EXPECT_DOUBLE_EQ(s.link_window, 6.0);
  EXPECT_DOUBLE_EQ(reg.gauge_value("serve/shard0/replicas"), 2.0);
  ASSERT_EQ(s.batch_hist.size(), 3u);  // highest bucket hit (2) + 1
  EXPECT_EQ(s.batch_hist[1], reg.counter_value("serve/batch/hist/1"));
  EXPECT_EQ(s.batch_hist[2], reg.counter_value("serve/batch/hist/2"));
  // The latency percentiles are the tree histogram's own P² marker
  // state, byte for byte.
  const telemetry::HistSnapshot lat =
      reg.find_histogram("serve/requests/latency")->snapshot();
  EXPECT_EQ(std::memcmp(&s.lat_p50, &lat.q50, sizeof lat.q50), 0);
  EXPECT_EQ(std::memcmp(&s.lat_p95, &lat.q95, sizeof lat.q95), 0);
  EXPECT_EQ(std::memcmp(&s.lat_p99, &lat.q99, sizeof lat.q99), 0);
  EXPECT_DOUBLE_EQ(s.max_latency_s, lat.max);
  EXPECT_GT(s.wall_s, 0.0);
  // Collector reads and tree reads keep agreeing as updates continue.
  c.on_request(0.030, true);
  EXPECT_EQ(c.snapshot().completed,
            reg.counter_value("serve/requests/completed"));
}

TEST(ServeStats, DrainLatencyWindowResetsOnlyTheWindow) {
  StatsCollector c;
  c.on_request(0.010, true);
  c.on_request(0.020, true);
  const telemetry::HistSnapshot w1 = c.drain_latency_window();
  EXPECT_EQ(w1.count, 2);
  const telemetry::HistSnapshot w2 = c.drain_latency_window();
  EXPECT_EQ(w2.count, 0);  // the window emptied...
  const ServeStats s = c.snapshot();
  EXPECT_EQ(s.completed, 2);  // ...the cumulative histogram did not
  EXPECT_DOUBLE_EQ(s.max_latency_s, 0.020);
}

TEST(ServeStats, MaxLatencyBoundsTheEstimates) {
  StatsCollector c;
  for (const double x : {0.004, 0.001, 0.009, 0.002, 0.007, 0.012})
    c.on_request(x, true);
  const ServeStats s = c.snapshot();
  EXPECT_DOUBLE_EQ(s.max_latency_s, 0.012);
  EXPECT_LE(s.percentile(99), s.max_latency_s);
}

}  // namespace
}  // namespace mtlsplit
