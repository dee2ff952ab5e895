// perfbench — the repository's end-to-end benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// (run.py builds it and is the entry point; BENCHMARK.json at the repo
// root lists the workloads and metrics.)
//
// Workloads (inputs, tenants and arrival times all derive from --seed;
// model weights are fixed per workload):
//
//  * fleet_poisson — open-loop Poisson arrivals (800/s, about a fifth of
//    the fleet's closed-loop capacity) from 4096 tenants onto a 3-node
//    FleetRouter (rendezvous placement, SWIM prober running, one
//    MobileNetV3 replica per node, batches of whatever is queued), then a
//    closed-loop phase of 24 clients for capacity. Stresses the serving
//    hops: routing, per-node queues, batcher, workers, settlement.
//  * stream_pipeline — one caller running back-to-back 8-frame streams
//    through ScDeployment::infer_stream (edge / wire / server stage
//    threads) on an EfficientNet split over a clean link. Stresses the
//    compiled graph executor and the pipeline hand-offs; no batching,
//    no packetisation.
//  * lossy_wire — 4 closed-loop clients against a 2-replica ScServer whose
//    int8 Z_b crosses an entropy-coded, FEC-protected, packetised link
//    with 2% packet loss (loss draws seeded from --seed). Stresses
//    quantisation, the range coder, FEC repair and the retransmit loop,
//    with kernels on the runtime thread pool.
//
// With --trace 0 the driver reports end-to-end metrics: median request
// latency (ms; a stream's latency is the whole stream's), completed frames
// per second, and set-up time (median of several complete set-ups). The
// p99 is printed on stderr but not reported: on a host with hypervisor
// steal it moved 2x between identical runs. With --trace 1 it runs the
// same workload for part of the window and spends the rest on a layer
// probe: spans around direct calls into each layer of the served path
// (backbone plan, wire encode, link, wire decode, head plans) on the
// workload's own inputs and configuration, plus the link and batch
// counters the served run left in the telemetry tree.
//
// Every served result is compared bit for bit against sequential
// ScDeployment::infer() on the same input; any mismatch or error counts
// as failed. The last line on stdout is one JSON object with the keys
// correct / attempted / failed / metrics; a human summary goes to stderr.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fleet/fleet.hpp"
#include "graph/executor.hpp"
#include "mtl/model_factory.hpp"
#include "runtime/thread_pool.hpp"
#include "sc/deployment.hpp"
#include "sc/quantize.hpp"
#include "sc/wire_codec.hpp"
#include "serve/server.hpp"
#include "tensor/serialize.hpp"

using namespace mtlsplit;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

Clock::time_point after(Clock::time_point t, double s) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(s));
}

/// Linear-interpolated quantile of @p v (copied, so callers keep order).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// One completed request: when it was due (or submitted) and how long it
/// took to settle from then.
struct Sample {
  Clock::time_point start;
  double latency_s = 0.0;
};

// ------------------------------------------------------------ workloads

struct Workload {
  std::string name;
  models::BackboneKind backbone;
  int64_t image;
  sc::ScDeploymentConfig deployment;
  sc::ChannelConfig link;
  size_t frames_per_request;  ///< 8 for a stream, 1 otherwise
  bool serial_kernels;        ///< one kernel lane per thread (see run())
};

Workload workload_by_name(const std::string& name) {
  if (name == "fleet_poisson")
    return {name, models::BackboneKind::kMobileNetV3, 16, {},
            {.bandwidth_bps = 1e9, .base_latency_s = 0.0002}, 1, true};
  if (name == "stream_pipeline")
    return {name, models::BackboneKind::kEfficientNet, 16, {},
            {.bandwidth_bps = 1e9, .base_latency_s = 0.0002}, 8, true};
  if (name == "lossy_wire")
    return {name,
            models::BackboneKind::kVgg16,
            32,
            {.encoding = sc::ZbEncoding::kInt8,
             .codec = sc::WireCodec::kEntropy},
            {.bandwidth_bps = 1e8,
             .base_latency_s = 0.0002,
             .seed = 4242,
             .link = {.mtu_bytes = 256,
                      .loss_prob = 0.02f,
                      .jitter_s = 0.0001,
                      .max_retransmits = 8,
                      .fec_data = 8,
                      .fec_parity = 1}},
            1,
            false};
  throw std::invalid_argument("unknown workload '" + name + "'");
}

constexpr uint64_t kModelSeed = 20240611;

constexpr size_t kInputPool = 64;

std::unique_ptr<core::MtlSplitModel> make_model(const Workload& w) {
  Rng rng(kModelSeed);
  core::ModelFactoryConfig cfg;
  cfg.backbone = w.backbone;
  cfg.image_shape = {3, w.image, w.image};
  auto m = core::make_mtl_model(cfg, {{"scale", 8}, {"shape", 4}}, rng);
  m->set_training(false);
  return m;
}

/// The seeded input pool plus its sequential reference results — the
/// oracle every served result is checked against.
struct Oracle {
  std::vector<Tensor> inputs;
  std::vector<std::vector<Tensor>> logits;

  bool matches(size_t i, const sc::InferenceResult& got) const {
    if (got.logits.size() != logits[i].size()) return false;
    for (size_t j = 0; j < got.logits.size(); ++j)
      if (!got.logits[j].equals(logits[i][j])) return false;
    return true;
  }
};

Oracle make_oracle(const Workload& w, uint64_t seed) {
  Oracle o;
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  for (size_t i = 0; i < kInputPool; ++i) {
    Tensor x({1, 3, w.image, w.image});
    rng.fill_uniform(x, 0.0f, 1.0f);
    o.inputs.push_back(std::move(x));
  }
  // Clean channel: the codec is lossless and link loss is repaired below
  // the quantise boundary, so served logits must match this bitwise.
  auto model = make_model(w);
  sc::Channel clean({.bandwidth_bps = 1e9});
  sc::ScDeployment ref(*model, clean, sc::jetson_nano(), sc::rtx3090_server(),
                       w.deployment);
  for (const Tensor& x : o.inputs) o.logits.push_back(ref.infer(x).logits);
  return o;
}

/// What one measured phase produced.
struct Tally {
  std::vector<Sample> samples;  ///< one entry per completed request
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t frames = 0;  ///< frames completed (throughput numerator)
  Clock::time_point t0;
  double window_s = 0.0;

  /// Frames completed per second: the median over the phase's whole
  /// one-second windows (by completion time), so a burst of hypervisor
  /// steal costs one window, not the phase's average. Phases shorter
  /// than a second fall back to the plain average.
  double frames_per_s(size_t frames_per_sample) const {
    const size_t windows = static_cast<size_t>(window_s);
    if (windows == 0)
      return window_s > 0.0 ? static_cast<double>(frames) / window_s : 0.0;
    std::vector<double> per_window(windows, 0.0);
    for (const Sample& s : samples) {
      const double done = seconds_between(t0, s.start) + s.latency_s;
      const size_t k = static_cast<size_t>(std::max(0.0, done));
      if (k < windows) per_window[k] += static_cast<double>(frames_per_sample);
    }
    return median(std::move(per_window));
  }

  void merge(const Tally& o) {
    samples.insert(samples.end(), o.samples.begin(), o.samples.end());
    attempted += o.attempted;
    failed += o.failed;
    frames += o.frames;
  }
};

/// Link / batching counters the served run left behind.
struct ServedCounters {
  int64_t messages = 0;
  int64_t wire_bytes = 0;
  int64_t wire_bytes_raw = 0;
  int64_t packets = 0;
  int64_t retransmits = 0;
  int64_t fec_repaired = 0;
  int64_t undelivered = 0;
  double batch_size_mean = 1.0;
};

ServedCounters counters_from(const std::vector<serve::ServeStats>& stats) {
  ServedCounters c;
  int64_t requests = 0, batches = 0;
  for (const serve::ServeStats& s : stats) {
    requests += s.completed + s.failed;
    batches += s.batches;
    c.wire_bytes += s.wire_bytes;
    c.wire_bytes_raw += s.wire_bytes_raw;
    c.retransmits += s.retransmits;
    c.fec_repaired += s.fec_repaired;
    c.undelivered += s.undelivered;
  }
  c.messages = requests;
  c.batch_size_mean = batches > 0 ? static_cast<double>(requests) /
                                        static_cast<double>(batches)
                                  : 0.0;
  return c;
}

// ----------------------------------------------------- fleet_poisson

constexpr size_t kFleetNodes = 3;
/// Tenant population the open loop draws from. Rendezvous placement of
/// 4096 random ids gives each node a third of them to within about 2%
/// (binomial sd 0.7%), whatever the seed; fleet_open_loop prints the split.
constexpr size_t kTenants = 4096;
/// Offered open-loop load. The closed-loop phase of the same run measures
/// the fleet's capacity (4200-5800 frames/s on a 4-vCPU x86 VM, with host
/// load), so 800/s is 14-19% utilisation: p50 is service time, not
/// queueing. fleet_run prints the measured share on every run.
constexpr double kFleetOfferedRps = 800.0;
/// Enough closed-loop clients that every node's queue stays non-empty:
/// with 8, capacity read 25% low and tracked client wake-up latency.
constexpr size_t kClosedClients = 24;

struct FleetSystem {
  std::unique_ptr<core::MtlSplitModel> prototype;
  std::unique_ptr<fleet::FleetRouter> router;
};

FleetSystem fleet_setup(const Workload& w, const Oracle& o) {
  FleetSystem s;
  s.prototype = make_model(w);
  fleet::FleetConfig cfg;
  cfg.nodes = kFleetNodes;
  cfg.replicas_per_node = 1;
  // Coalesce whatever is queued, never wait for a batch to fill: on this
  // fleet a 500 us coalescing wait raised p50 by half without raising
  // capacity, and its timer wake-ups made p50 swing with host scheduling.
  cfg.serve.batching = {.max_batch_size = 4, .max_wait_us = 0};
  cfg.serve.deployment = w.deployment;
  cfg.data_link = w.link;
  cfg.control_link = {.bandwidth_bps = 1e9};
  const Workload wc = w;
  cfg.make_replica = [wc] { return make_model(wc); };
  s.router = std::make_unique<fleet::FleetRouter>(
      *s.prototype, sc::jetson_nano(), sc::rtx3090_server(), cfg);
  // Warm every node (plan compile happens on a worker's first batch).
  std::vector<bool> warmed(kFleetNodes, false);
  for (uint64_t cid = 0; std::count(warmed.begin(), warmed.end(), false) > 0;
       ++cid) {
    const size_t k = s.router->route(cid);
    if (warmed[k]) continue;
    warmed[k] = true;
    if (!o.matches(0, s.router->submit(o.inputs[0].clone(),
                                       {.base = {.client_id = cid}})
                          .get()))
      throw std::runtime_error("fleet warm-up result differs from oracle");
  }
  return s;
}

/// Open loop: a Poisson schedule at kFleetOfferedRps, each request timed
/// from when it was due (so a stalled generator is charged to latency).
Tally fleet_open_loop(fleet::FleetRouter& router, const Oracle& o,
                      uint64_t seed, double window_s, double* late_s) {
  struct Flight {
    std::future<sc::InferenceResult> f;
    Clock::time_point due;
    size_t input = 0;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Flight> flights;
  bool done = false;
  Tally total;
  std::mutex total_mu;

  // Waiters block on futures (no polling error); 8 of them keep a waiter
  // free for every request in flight at these rates.
  std::vector<std::thread> waiters;
  for (int t = 0; t < 8; ++t)
    waiters.emplace_back([&] {
      Tally mine;
      for (;;) {
        Flight fl;
        {
          std::unique_lock<std::mutex> lk(mu);
          cv.wait(lk, [&] { return done || !flights.empty(); });
          if (flights.empty()) break;
          fl = std::move(flights.front());
          flights.pop_front();
        }
        try {
          const sc::InferenceResult r = fl.f.get();
          const auto t1 = Clock::now();
          if (o.matches(fl.input, r)) {
            mine.samples.push_back({fl.due, seconds_between(fl.due, t1)});
            ++mine.frames;
          } else {
            ++mine.failed;
          }
        } catch (const std::exception&) {
          ++mine.failed;
        }
      }
      std::lock_guard<std::mutex> lk(total_mu);
      total.merge(mine);
    });

  std::mt19937_64 gen(seed ^ 0xF1EE7ULL);
  std::exponential_distribution<double> gap(kFleetOfferedRps);
  std::uniform_int_distribution<uint64_t> tenant_pick(0, kTenants - 1);
  std::uniform_int_distribution<size_t> input_pick(0, kInputPool - 1);
  std::vector<uint64_t> tenants(kTenants);
  std::vector<size_t> per_node(kFleetNodes, 0);
  for (uint64_t& t : tenants) {
    t = gen();
    ++per_node[router.route(t)];
  }
  std::fprintf(stderr, "fleet_poisson: tenants per node");
  for (size_t n : per_node) std::fprintf(stderr, " %zu", n);
  std::fprintf(stderr, "\n");
  const auto t0 = Clock::now();
  const auto end = after(t0, window_s);
  auto due = t0;
  *late_s = 0.0;
  for (;;) {
    due = after(due, gap(gen));
    if (due >= end) break;
    std::this_thread::sleep_until(due);
    *late_s = std::max(*late_s, seconds_between(due, Clock::now()));
    const size_t in = input_pick(gen);
    Flight fl{router.submit(o.inputs[in].clone(),
                            {.base = {.client_id = tenants[tenant_pick(gen)]}}),
              due, in};
    ++total.attempted;
    {
      std::lock_guard<std::mutex> lk(mu);
      flights.push_back(std::move(fl));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lk(mu);
    done = true;
  }
  cv.notify_all();
  for (auto& t : waiters) t.join();
  total.t0 = t0;
  total.window_s = seconds_between(t0, Clock::now());
  return total;
}

/// Closed loop: each client submits its next request only when the last
/// one settled, so completions per second is the fleet's capacity.
template <typename Submit>
Tally closed_loop(size_t clients, const Oracle& o, uint64_t seed,
                  double window_s, Submit submit) {
  Tally total;
  std::mutex mu;
  const auto t0 = Clock::now();
  const auto end = after(t0, window_s);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c)
    threads.emplace_back([&, c] {
      Tally mine;
      std::mt19937_64 gen(seed * 1315423911ULL + c);
      std::uniform_int_distribution<size_t> input_pick(0, kInputPool - 1);
      while (Clock::now() < end) {
        const size_t in = input_pick(gen);
        // A fresh tenant per request keeps rendezvous placement balanced
        // whatever the seed; 8 fixed tenants would split 5/2/1 on some.
        const uint64_t tenant = gen();
        const auto s0 = Clock::now();
        ++mine.attempted;
        try {
          const sc::InferenceResult r = submit(o.inputs[in].clone(), tenant);
          const auto s1 = Clock::now();
          if (o.matches(in, r)) {
            mine.samples.push_back({s0, seconds_between(s0, s1)});
            ++mine.frames;
          } else {
            ++mine.failed;
          }
        } catch (const std::exception&) {
          ++mine.failed;
        }
      }
      std::lock_guard<std::mutex> lk(mu);
      total.merge(mine);
    });
  for (auto& t : threads) t.join();
  total.t0 = t0;
  total.window_s = seconds_between(t0, Clock::now());
  return total;
}

struct RunResult {
  Tally latency;     ///< phase whose latency distribution is reported
  Tally throughput;  ///< phase whose completions/s is reported
  int64_t attempted = 0, failed = 0;  ///< across every phase
  ServedCounters counters;
};

RunResult fleet_run(FleetSystem& s, const Oracle& o, uint64_t seed,
                    double window_s) {
  RunResult r;
  double late_s = 0.0;
  r.latency = fleet_open_loop(*s.router, o, seed, 0.5 * window_s, &late_s);
  std::fprintf(stderr, "fleet_poisson: generator ran at most %.3f ms late\n",
               1e3 * late_s);
  r.throughput = closed_loop(
      kClosedClients, o, seed, 0.5 * window_s,
      [&](Tensor x, uint64_t tenant) {
        return s.router->submit(std::move(x), {.base = {.client_id = tenant}})
            .get();
      });
  const double capacity = r.throughput.frames_per_s(1);
  std::fprintf(stderr,
               "fleet_poisson: offered %.0f/s is %.0f%% of the measured "
               "capacity %.0f/s%s\n",
               kFleetOfferedRps,
               capacity > 0.0 ? 100.0 * kFleetOfferedRps / capacity : 0.0,
               capacity,
               kFleetOfferedRps > 0.5 * capacity
                   ? " (over half: p50 includes queueing)"
                   : "");
  r.attempted = r.latency.attempted + r.throughput.attempted;
  r.failed = r.latency.failed + r.throughput.failed;
  s.router->shutdown();
  std::vector<serve::ServeStats> stats;
  for (size_t k = 0; k < s.router->num_nodes(); ++k)
    stats.push_back(s.router->node_server(k).stats());
  r.counters = counters_from(stats);
  return r;
}

// ---------------------------------------------------- stream_pipeline

struct StreamSystem {
  std::unique_ptr<core::MtlSplitModel> model;
  std::unique_ptr<sc::Channel> channel;
  std::unique_ptr<sc::ScDeployment> deployment;
};

std::vector<size_t> pick_frames(std::mt19937_64& gen, size_t n) {
  std::uniform_int_distribution<size_t> input_pick(0, kInputPool - 1);
  std::vector<size_t> idx(n);
  for (size_t& i : idx) i = input_pick(gen);
  return idx;
}

StreamSystem stream_setup(const Workload& w, const Oracle& o) {
  StreamSystem s;
  s.model = make_model(w);
  s.channel = std::make_unique<sc::Channel>(w.link);
  s.deployment = std::make_unique<sc::ScDeployment>(
      *s.model, *s.channel, sc::jetson_nano(), sc::rtx3090_server(),
      w.deployment);
  std::vector<Tensor> frames(w.frames_per_request, o.inputs[0]);
  const sc::StreamResult r = s.deployment->infer_stream(frames);
  for (const sc::InferenceResult& item : r.results)
    if (!o.matches(0, item))
      throw std::runtime_error("stream warm-up result differs from oracle");
  return s;
}

RunResult stream_run(StreamSystem& s, const Workload& w, const Oracle& o,
                     uint64_t seed, double window_s) {
  RunResult r;
  s.channel->reset_stats();
  std::mt19937_64 gen(seed ^ 0x57AE4ULL);
  Tally& t = r.latency;
  const auto t0 = Clock::now();
  const auto end = after(t0, window_s);
  while (Clock::now() < end) {
    const std::vector<size_t> idx = pick_frames(gen, w.frames_per_request);
    std::vector<Tensor> frames;
    for (size_t i : idx) frames.push_back(o.inputs[i]);
    ++t.attempted;
    const auto s0 = Clock::now();
    try {
      const sc::StreamResult sr = s.deployment->infer_stream(frames);
      const auto s1 = Clock::now();
      bool ok = sr.results.size() == idx.size();
      for (size_t k = 0; ok && k < idx.size(); ++k)
        ok = o.matches(idx[k], sr.results[k]);
      if (ok) {
        t.samples.push_back({s0, seconds_between(s0, s1)});
        t.frames += static_cast<int64_t>(idx.size());
      } else {
        ++t.failed;
      }
    } catch (const std::exception&) {
      ++t.failed;
    }
  }
  t.t0 = t0;
  t.window_s = seconds_between(t0, Clock::now());
  r.throughput = t;
  r.attempted = t.attempted;
  r.failed = t.failed;
  const sc::Channel& ch = *s.channel;
  r.counters.messages = ch.messages_sent();
  r.counters.wire_bytes = ch.total_bytes();
  r.counters.wire_bytes_raw = ch.total_bytes();
  r.counters.packets = ch.packets_sent();
  r.counters.retransmits = ch.retransmits();
  r.counters.fec_repaired = ch.fec_repaired();
  r.counters.undelivered = ch.undelivered();
  r.counters.batch_size_mean = 1.0;  // a stream moves one frame per stage
  return r;
}

// --------------------------------------------------------- lossy_wire

constexpr size_t kWireReplicas = 2;
constexpr size_t kWireClients = 4;

struct WireSystem {
  std::vector<std::unique_ptr<core::MtlSplitModel>> replicas;
  std::unique_ptr<sc::Channel> link;
  std::unique_ptr<serve::ScServer> server;
};

WireSystem wire_setup(const Workload& w, const Oracle& o, uint64_t seed) {
  WireSystem s;
  std::vector<core::MtlSplitModel*> raw;
  for (size_t k = 0; k < kWireReplicas; ++k) {
    s.replicas.push_back(make_model(w));
    raw.push_back(s.replicas.back().get());
  }
  sc::ChannelConfig link = w.link;
  link.seed = w.link.seed + seed;  // the loss pattern varies with --seed
  s.link = std::make_unique<sc::Channel>(link);
  s.server = std::make_unique<serve::ScServer>(
      raw, *s.link, sc::jetson_nano(), sc::rtx3090_server(),
      serve::ServeConfig{
          .batching = {.max_batch_size = 4, .max_wait_us = 500},
          .deployment = w.deployment});
  // A burst wide enough that both workers serve (and compile) once.
  std::vector<std::future<sc::InferenceResult>> warm;
  for (size_t i = 0; i < 4 * kWireReplicas; ++i)
    warm.push_back(s.server->submit(o.inputs[i].clone(), {.client_id = i}));
  for (size_t i = 0; i < warm.size(); ++i)
    if (!o.matches(i, warm[i].get()))
      throw std::runtime_error("wire warm-up result differs from oracle");
  return s;
}

RunResult wire_run(WireSystem& s, const Oracle& o, uint64_t seed,
                   double window_s) {
  RunResult r;
  const serve::ServeStats before = s.server->stats();
  const int64_t packets_before =
      s.server->telemetry_tree().counter_value("serve/shard0/link/packets");
  r.latency = closed_loop(kWireClients, o, seed, window_s,
                          [&](Tensor x, uint64_t tenant) {
                            return s.server
                                ->submit(std::move(x), {.client_id = tenant})
                                .get();
                          });
  r.throughput = r.latency;
  r.attempted = r.latency.attempted;
  r.failed = r.latency.failed;
  s.server->shutdown();
  serve::ServeStats after = s.server->stats();
  // Report the measured window only, not the warm-up burst.
  after.completed -= before.completed;
  after.failed -= before.failed;
  after.batches -= before.batches;
  after.wire_bytes -= before.wire_bytes;
  after.wire_bytes_raw -= before.wire_bytes_raw;
  after.retransmits -= before.retransmits;
  after.fec_repaired -= before.fec_repaired;
  after.undelivered -= before.undelivered;
  r.counters = counters_from({after});
  r.counters.packets =
      s.server->telemetry_tree().counter_value("serve/shard0/link/packets") -
      packets_before;
  return r;
}

// ---------------------------------------------------------- layer probe

/// Per-frame self time of each layer on the served path, from spans
/// around direct calls into the layers (compiled backbone plan, wire
/// encode, link, wire decode, compiled head plans).
struct LayerProbe {
  double edge_s = 0.0, encode_s = 0.0, link_s = 0.0, decode_s = 0.0,
         server_s = 0.0;
  double edge_gflop_s = 0.0;
  int64_t frames = 0;
  int64_t failed = 0;
};

LayerProbe probe_layers(const Workload& w, const Oracle& o, uint64_t seed,
                        double window_s) {
  auto model = make_model(w);
  const Shape in = {1, 3, w.image, w.image};
  graph::GraphExecutor backbone(graph::compile(model->backbone(), in));
  const Shape zb_in = model->backbone().output_shape(in);
  std::vector<graph::GraphExecutor> heads;
  for (size_t j = 0; j < model->num_tasks(); ++j)
    heads.emplace_back(graph::compile(model->head(j), zb_in));
  sc::ChannelConfig link = w.link;
  link.seed = w.link.seed + seed;
  sc::Channel channel(link);
  const bool int8 = w.deployment.encoding == sc::ZbEncoding::kInt8;
  const bool coded = w.deployment.codec != sc::WireCodec::kRaw;

  std::vector<double> edge, encode, wire, decode, server;
  LayerProbe p;
  std::mt19937_64 gen(seed ^ 0x9B0BEULL);
  std::uniform_int_distribution<size_t> input_pick(0, kInputPool - 1);
  const auto end = after(Clock::now(), window_s);
  while (Clock::now() < end) {
    const size_t i = input_pick(gen);
    const auto t0 = Clock::now();
    const Tensor zb = backbone.run(o.inputs[i]);
    const auto t1 = Clock::now();
    std::vector<uint8_t> msg;
    if (int8) {
      const sc::QuantizedTensor q = sc::quantize_int8(zb);
      msg = serialize_int8(q.shape, q.values, q.scale, q.zero_point);
    } else {
      msg = serialize_tensor(zb);
    }
    if (coded) msg = sc::encode_frame(msg, w.deployment.codec);
    const auto t2 = Clock::now();
    std::vector<uint8_t> rx = channel.transmit(std::move(msg));
    const auto t3 = Clock::now();
    sc::InferenceResult r;
    try {
      if (coded) rx = sc::decode_frame(rx);
      const WireTensor wt = deserialize_tensor(rx);
      const Tensor zb_rx =
          wt.dtype == WireDtype::kFloat32
              ? wt.f32
              : sc::dequantize_int8({wt.shape, wt.i8, wt.scale, wt.zero_point});
      const auto t4 = Clock::now();
      for (graph::GraphExecutor& h : heads) r.logits.push_back(h.run(zb_rx));
      const auto t5 = Clock::now();
      edge.push_back(seconds_between(t0, t1));
      encode.push_back(seconds_between(t1, t2));
      wire.push_back(seconds_between(t2, t3));
      decode.push_back(seconds_between(t3, t4));
      server.push_back(seconds_between(t4, t5));
    } catch (const std::exception&) {
      ++p.failed;
      continue;
    }
    ++p.frames;
    if (!o.matches(i, r)) ++p.failed;
  }
  p.edge_s = median(edge);
  p.encode_s = median(encode);
  p.link_s = median(wire);
  p.decode_s = median(decode);
  p.server_s = median(server);
  p.edge_gflop_s = p.edge_s > 0.0 ? 1e-9 *
                                        static_cast<double>(
                                            model->backbone().flops(in)) /
                                        p.edge_s
                                  : 0.0;
  return p;
}

// ---------------------------------------------------------------- main

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, int64_t attempted, int64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// Builds the served system @p setups times from scratch (models, servers,
/// warm-up), keeps the last one and returns the median set-up time.
template <typename System, typename Setup>
double timed_setup(int setups, System* keep, Setup setup) {
  std::vector<double> times;
  for (int k = 0; k < setups; ++k) {
    const auto t0 = Clock::now();
    System s = setup();
    times.push_back(seconds_between(t0, Clock::now()));
    if (k + 1 == setups) *keep = std::move(s);
  }
  return median(times);
}

constexpr int kSetups = 21;

int run(const Args& a) {
  const Workload w = workload_by_name(a.workload);
  // fleet_poisson and stream_pipeline run serial kernels: each worker or
  // pipeline stage computes on its own thread. On a 4-vCPU host, three
  // fleet nodes' intra-op fan-out oversubscribed it, and the three stream
  // stages contending for the pool moved stream p50 by 9-14% (IQR/median
  // over seeds) against 3-5% serial. lossy_wire keeps the default pool, so
  // the threaded kernels stay measured.
  if (w.serial_kernels) runtime::set_num_threads(1);
  const Oracle o = make_oracle(w, a.seed);
  // The traced run splits its window between the served workload and the
  // layer probe; the untraced run spends all of it on the workload.
  const double served_s = a.trace ? 0.7 * a.seconds : a.seconds;

  RunResult r;
  double setup_s = 0.0;
  if (w.name == "fleet_poisson") {
    FleetSystem s;
    setup_s = timed_setup(kSetups, &s, [&] { return fleet_setup(w, o); });
    r = fleet_run(s, o, a.seed, served_s);
  } else if (w.name == "stream_pipeline") {
    StreamSystem s;
    setup_s = timed_setup(kSetups, &s, [&] { return stream_setup(w, o); });
    r = stream_run(s, w, o, a.seed, served_s);
  } else {
    WireSystem s;
    setup_s =
        timed_setup(kSetups, &s, [&] { return wire_setup(w, o, a.seed); });
    r = wire_run(s, o, a.seed, served_s);
  }

  int64_t attempted = r.attempted, failed = r.failed;
  std::vector<double> lat;
  for (const Sample& smp : r.latency.samples) lat.push_back(smp.latency_s);
  const double p50 = median(lat);
  const double per_s = r.throughput.frames_per_s(w.frames_per_request);
  std::fprintf(stderr,
               "%s seed=%llu: %zu latency samples, p50 %.3f ms, p99 %.3f ms "
               "(not gated), %.1f frames/s, set-up %.3f s, %lld attempted, "
               "%lld failed\n",
               w.name.c_str(), static_cast<unsigned long long>(a.seed),
               lat.size(), 1e3 * p50, 1e3 * quantile(lat, 0.99), per_s,
               setup_s, static_cast<long long>(attempted),
               static_cast<long long>(failed));

  bool correct = failed == 0 && attempted > 0 &&
                 r.counters.undelivered == 0 && !lat.empty();
  std::vector<Metric> metrics;
  if (!a.trace) {
    metrics = {{"p50_ms", 1e3 * p50, "ms"},
               {"throughput_per_s", per_s, "1/s"},
               {"setup_s", setup_s, "s"}};
  } else {
    const LayerProbe p =
        probe_layers(w, o, a.seed, a.seconds - served_s);
    attempted += p.frames;
    failed += p.failed;
    correct = correct && p.failed == 0 && p.frames > 0;
    const ServedCounters& c = r.counters;
    const double msgs = std::max<double>(1.0, static_cast<double>(c.messages));
    const double frame_s =
        p.edge_s + p.encode_s + p.link_s + p.decode_s + p.server_s;
    std::fprintf(stderr,
                 "probe: %lld frames; edge %.3f ms, encode %.1f us, link "
                 "%.1f us, decode %.1f us, server %.3f ms\n",
                 static_cast<long long>(p.frames), 1e3 * p.edge_s,
                 1e6 * p.encode_s, 1e6 * p.link_s, 1e6 * p.decode_s,
                 1e3 * p.server_s);
    metrics = {
        {"edge_ms", 1e3 * p.edge_s, "ms"},
        {"edge_gflop_s", p.edge_gflop_s, "GFLOP/s"},
        {"wire_encode_us", 1e6 * p.encode_s, "us"},
        {"link_us", 1e6 * p.link_s, "us"},
        {"wire_decode_us", 1e6 * p.decode_s, "us"},
        {"server_ms", 1e3 * p.server_s, "ms"},
        {"wire_ratio",
         c.wire_bytes_raw > 0 ? static_cast<double>(c.wire_bytes) /
                                    static_cast<double>(c.wire_bytes_raw)
                              : 1.0,
         "ratio"},
        {"packets_per_msg", static_cast<double>(c.packets) / msgs, "count"},
        {"retransmits_per_msg", static_cast<double>(c.retransmits) / msgs,
         "count"},
        {"fec_repaired_per_msg", static_cast<double>(c.fec_repaired) / msgs,
         "count"},
        {"batch_size_mean", c.batch_size_mean, "count"},
        {"busy_share",
         p50 > 0.0 ? frame_s * static_cast<double>(w.frames_per_request) / p50
                   : 0.0,
         "ratio"},
    };
  }
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
