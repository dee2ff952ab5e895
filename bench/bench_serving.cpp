// Multi-client serving bench over ScServer and FleetRouter.
//
// kScenarios (bottom of the file) is the whole bench. Each entry is
// {key, why, run}; run returns one Report holding the scenario's metrics,
// nested under the BENCH_SERVING.json keys they fill, and its named gates.
// main() prints every Report, writes BENCH_SERVING.json with one top-level
// "gates" array, and exits 0 only if every gate passed. A gate that checks
// that a scenario provoked the condition it names reports not_exercised
// instead of fail, which fails the run too. Numbers without a gate are
// reported, never claimed.
//
// Every open-loop scenario runs drive(): Poisson clients on a schedule
// that never waits for completions, so queueing delay shows up in the
// latency tail instead of silently throttling the offered load.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <optional>
#include <random>
#include <thread>

#include "fleet/fleet.hpp"
#include "gate.hpp"
#include "json.hpp"
#include "mtl/model_factory.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/server.hpp"

using namespace mtlsplit;
using bench::Json;
using bench::Report;
using Clock = std::chrono::steady_clock;

namespace {

constexpr size_t kClients = 8;
constexpr size_t kPerClient = 24;
constexpr int64_t kImage = 16;

/// The link every scenario but the wire sweep serves over.
const sc::ChannelConfig kLan{.bandwidth_bps = 1e9, .base_latency_s = 0.0002};

// --------------------------------------------------------------- models

std::unique_ptr<core::MtlSplitModel> make_replica(
    uint64_t seed,
    models::BackboneKind backbone = models::BackboneKind::kMobileNetV3,
    int64_t image = kImage) {
  Rng rng(seed);
  core::ModelFactoryConfig cfg;
  cfg.backbone = backbone;
  cfg.image_shape = {3, image, image};
  auto m = core::make_mtl_model(cfg, {{"scale", 8}, {"shape", 4}}, rng);
  m->set_training(false);
  return m;
}

Tensor request_input(uint64_t seed, int64_t image = kImage) {
  Rng rng(seed);
  Tensor x({1, 3, image, image});
  rng.fill_uniform(x, 0.0f, 1.0f);
  return x;
}

/// The models the scenarios share: two worker replicas and a sequential
/// reference, all holding replica 0's weights.
struct Models {
  std::unique_ptr<core::MtlSplitModel> m0 = make_replica(1);
  std::unique_ptr<core::MtlSplitModel> m1 = make_replica(2);
  std::unique_ptr<core::MtlSplitModel> ref = make_replica(3);
  Models() {
    core::copy_model_state(*m1, *m0);
    core::copy_model_state(*ref, *m0);
  }
};

/// A server over its own kLan channel, which must outlive it.
struct LanServer {
  sc::Channel link{kLan};
  serve::ScServer server;
  LanServer(std::vector<core::MtlSplitModel*> replicas, serve::ServeConfig cfg)
      : server(std::move(replicas), link, sc::jetson_nano(),
               sc::rtx3090_server(), std::move(cfg)) {}
};

bool same_logits(const sc::InferenceResult& got,
                 const sc::InferenceResult& want) {
  for (size_t j = 0; j < want.logits.size(); ++j)
    if (!got.logits[j].equals(want.logits[j])) return false;
  return true;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double p99_ms(std::vector<double> latency_s) {
  if (latency_s.empty()) return 0.0;
  std::sort(latency_s.begin(), latency_s.end());
  return 1e3 * latency_s[(latency_s.size() - 1) * 99 / 100];
}

// ---------------------------------------------------------- load driver

/// One request in flight, polled to settlement by harvest().
struct Flight {
  Clock::time_point t0, ready_at;
  std::future<sc::InferenceResult> f;
  bool done = false;
  std::optional<sc::InferenceResult> value;  // empty: settled with an error
};

/// Settles every ready flight, stamping when it was seen ready, and
/// returns how many are still pending. Polling bounds the stamp error by
/// one poll; an in-order blocking get() would time earlier completions
/// against a later one and inflate the tail.
size_t harvest(std::vector<Flight>& flights) {
  size_t pending = 0;
  for (Flight& fl : flights) {
    if (fl.done) continue;
    if (fl.f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      ++pending;
      continue;
    }
    fl.ready_at = Clock::now();
    fl.done = true;
    try {
      fl.value = fl.f.get();
    } catch (...) {
    }
  }
  return pending;
}

/// Harvests until every flight settled or @p give_up passed; returns how
/// many never settled.
size_t settle(std::vector<Flight>& flights,
              Clock::time_point give_up = Clock::time_point::max()) {
  size_t pending = 0;
  while ((pending = harvest(flights)) > 0 && Clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  return pending;
}

/// Open-loop Poisson load. Client ids run from first_client; client id
/// submits at qps / clients with gaps drawn from generator arrival_seed +
/// id and request k seeded input_seed + id * input_stride + k.
struct Load {
  double qps = 0.0;
  size_t per_client = 0;  ///< requests per client, unless `until` ends it
  Clock::time_point until = Clock::time_point::max();  ///< last arrival
  uint64_t arrival_seed = 0;
  uint64_t input_seed = 0;
  uint64_t input_stride = 1000;
  size_t clients = kClients;
  uint64_t first_client = 0;
  std::chrono::microseconds ttl{0};  ///< per-request deadline; 0 = none
};

struct ClientTally {
  uint64_t client = 0;
  int64_t submitted = 0;
  int64_t completed = 0;
  int64_t errored = 0;  ///< settled with any error (rejected, shed, expired)
};

struct LoadResult {
  std::vector<ClientTally> clients;
  std::vector<double> latency_s;  ///< client-observed, completed requests
  double max_submit_ms = 0.0;     ///< the slowest submit() call
  int64_t sum(int64_t ClientTally::*field) const {
    int64_t n = 0;
    for (const ClientTally& c : clients) n += c.*field;
    return n;
  }
};

LoadResult drive(serve::ScServer& server, const Load& load) {
  std::vector<std::vector<Flight>> flights(load.clients);
  std::vector<double> max_submit_s(load.clients, 0.0);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < load.clients; ++c)
    threads.emplace_back([&, c] {
      const uint64_t id = load.first_client + c;
      std::mt19937_64 gen(load.arrival_seed + id);
      std::exponential_distribution<double> gap(
          load.qps / static_cast<double>(load.clients));
      auto next = Clock::now();
      for (size_t k = 0; k < load.per_client; ++k) {
        next += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(gap(gen)));
        if (next >= load.until) break;
        std::this_thread::sleep_until(next);
        Flight& fl = flights[c].emplace_back();
        fl.t0 = Clock::now();
        fl.f = server.submit(
            request_input(load.input_seed + id * load.input_stride + k),
            {.client_id = id, .ttl = load.ttl});
        max_submit_s[c] = std::max(max_submit_s[c], seconds_since(fl.t0));
        harvest(flights[c]);  // bounds the stamp error by one arrival gap
      }
      settle(flights[c]);
    });
  for (auto& t : threads) t.join();
  LoadResult out;
  for (size_t c = 0; c < load.clients; ++c) {
    ClientTally& t = out.clients.emplace_back();
    t.client = load.first_client + c;
    for (const Flight& fl : flights[c]) {
      ++t.submitted;
      if (!fl.value) {
        ++t.errored;
        continue;
      }
      ++t.completed;
      out.latency_s.push_back(
          std::chrono::duration<double>(fl.ready_at - fl.t0).count());
    }
    out.max_submit_ms = std::max(out.max_submit_ms, 1e3 * max_submit_s[c]);
  }
  return out;
}

/// drive() against a fresh server; returns its stats after shutdown.
serve::ServeStats drive_fresh(std::vector<core::MtlSplitModel*> replicas,
                              serve::ServeConfig cfg, const Load& load,
                              LoadResult* result = nullptr) {
  LanServer s(std::move(replicas), std::move(cfg));
  LoadResult r = drive(s.server, load);
  if (result) *result = std::move(r);
  s.server.shutdown();
  return s.server.stats();
}

/// Closed-loop saturation probe: clients re-submit the moment a future
/// resolves, so the measured throughput is the service capacity.
double probe_saturation_qps(std::vector<core::MtlSplitModel*> replicas) {
  LanServer s(std::move(replicas),
              {.batching = {.max_batch_size = 8, .max_wait_us = 1000}});
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      for (size_t k = 0; k < 40; ++k)
        (void)s.server.submit(request_input(40000 + c * 100 + k),
                              {.client_id = c})
            .get();
    });
  for (auto& t : clients) t.join();
  s.server.shutdown();
  return s.server.stats().throughput_rps();
}

/// Submits @p burst requests at once (request i seeded 120000 + i) and
/// waits for all of them; returns the wall time. @p max_seen tracks the
/// peak replica count while the burst drains.
double run_burst(serve::ScServer& server, size_t burst,
                 std::vector<sc::InferenceResult>* results = nullptr,
                 size_t* max_seen = nullptr) {
  std::vector<std::future<sc::InferenceResult>> futures;
  const auto t0 = Clock::now();
  for (uint64_t i = 0; i < burst; ++i)
    futures.push_back(server.submit(request_input(120000 + i),
                                    {.client_id = i}));
  for (auto& f : futures) {
    if (max_seen) *max_seen = std::max(*max_seen, server.num_workers());
    sc::InferenceResult r = f.get();
    if (results) results->push_back(std::move(r));
  }
  return seconds_since(t0);
}

// ------------------------------------------------------------ scenarios

Report run_bitwise(Models& m) {
  sc::Channel ref_ch(kLan);
  sc::ScDeployment ref(*m.ref, ref_ch, sc::jetson_nano(),
                       sc::rtx3090_server());
  LanServer s({m.m0.get()},
              {.batching = {.max_batch_size = 8, .max_wait_us = 5000}});
  std::vector<std::future<sc::InferenceResult>> futures;
  for (uint64_t i = 0; i < 32; ++i)
    futures.push_back(s.server.submit(request_input(90000 + i)));
  int64_t diverged = 0;
  for (uint64_t i = 0; i < futures.size(); ++i)
    diverged += !same_logits(futures[i].get(),
                             ref.infer(request_input(90000 + i)));
  Report r;
  r.metrics["bitwise_identical_to_sequential"] = diverged == 0;
  r.gate("bitwise/diverged_requests", diverged, "==", 0);
  return r;
}

Report run_load_sweep(Models& m) {
  const std::vector<core::MtlSplitModel*> replicas = {m.m0.get(),
                                                      m.m1.get()};
  const serve::BatchingPolicy no_batch{.max_batch_size = 1, .max_wait_us = 0};
  const serve::BatchingPolicy dynamic{.max_batch_size = 8,
                                      .max_wait_us = 2000};
  Report r;
  r.metrics = {{"clients", kClients},
               {"requests_per_client", kPerClient},
               {"server_workers", replicas.size()}};
  Json& cells = r.metrics["cells"] = Json::array();
  for (const double qps : {100.0, 300.0, 600.0})
    for (const serve::BatchingPolicy& policy : {no_batch, dynamic}) {
      const serve::ServeStats s =
          drive_fresh(replicas, {.batching = policy},
                      {.qps = qps,
                       .per_client = kPerClient,
                       .arrival_seed = 0xC0FFEE,
                       .input_seed = 7000});
      cells.push({{"offered_qps", qps},
                  {"policy",
                   {{"max_batch_size", policy.max_batch_size},
                    {"max_wait_us", policy.max_wait_us}}},
                  {"completed", s.completed}, {"failed", s.failed},
                  {"throughput_rps", s.throughput_rps()},
                  {"p50_ms", 1e3 * s.percentile(50)},
                  {"p95_ms", 1e3 * s.percentile(95)},
                  {"p99_ms", 1e3 * s.percentile(99)},
                  {"mean_batch_size", s.mean_batch_size()},
                  {"wire_bytes", s.wire_bytes},
                  {"batch_hist", Json::array(s.batch_hist)}});
      if (qps == 600.0 && policy.max_batch_size > 1)
        r.gate("load_sweep/dynamic_mean_batch_at_600", s.mean_batch_size(),
               ">", 1.0);
    }
  return r;
}

Report run_overload(Models& m) {
  const std::vector<core::MtlSplitModel*> replicas = {m.m0.get(),
                                                      m.m1.get()};
  const double saturation = probe_saturation_qps(replicas);
  const serve::ServeConfig cfg{
      .batching = {.max_batch_size = 8, .max_wait_us = 1000},
      .admission = {.policy = serve::AdmissionPolicy::kReject,
                    .capacity = 8}};
  auto load = [&](double x_saturation) {
    return Load{.qps = x_saturation * saturation,
                .per_client = 2 * kPerClient,
                .arrival_seed = 0xFACADE,
                .input_seed = 60000};
  };
  // Unsaturated baseline at half saturation, then 4x saturation: the
  // bounded queue sheds load at the door, and submit() never waits for
  // queue space.
  LoadResult over_load;
  const serve::ServeStats su = drive_fresh(replicas, cfg, load(0.5));
  const serve::ServeStats so =
      drive_fresh(replicas, cfg, load(4.0), &over_load);
  const double unsat_p99 = 1e3 * su.percentile(99);
  const double over_p99 = 1e3 * so.percentile(99);
  const int64_t admitted = so.completed + so.failed;
  Report r;
  r.metrics["overload"] = {
      {"admission", "reject"}, {"saturation_qps", saturation},
      {"unsaturated_qps", 0.5 * saturation}, {"unsaturated_p99_ms", unsat_p99},
      {"overload_qps", 4.0 * saturation}, {"overload_p99_ms", over_p99},
      {"p99_ratio", unsat_p99 > 0.0 ? over_p99 / unsat_p99 : 0.0},
      {"max_submit_ms", over_load.max_submit_ms},
      {"admitted", admitted}, {"rejected", so.rejected}};
  r.gate("overload/exercised", so.rejected, ">", 0, /*exercise=*/true);
  r.gate("overload/admitted_plus_rejected", admitted + so.rejected, "==",
         over_load.sum(&ClientTally::submitted));
  return r;
}

Report run_fairness(Models& m) {
  constexpr size_t kVictims = 3;
  constexpr double kVictimQps = 40.0;  // per victim client
  constexpr std::chrono::seconds kDuration{2};  // of offered load
  constexpr size_t kFloodWindow = 32;  // flooder's in-flight depth
  LanServer s({m.m0.get()},
              {.batching = {.max_batch_size = 8, .max_wait_us = 1000},
               .admission = {.policy = serve::AdmissionPolicy::kShedOldest,
                             .capacity = 64}});
  const auto t_end = Clock::now() + kDuration;
  auto tally = [](std::future<sc::InferenceResult>& f, ClientTally& t) {
    try {
      (void)f.get();
      ++t.completed;
    } catch (...) {
      ++t.errored;
    }
  };
  // Client 0 floods closed-loop with a deep window: offered load far
  // beyond capacity, ~10x the victims' combined rate.
  ClientTally flood;
  std::thread flooder([&] {
    std::deque<std::future<sc::InferenceResult>> window;
    for (uint64_t k = 0; Clock::now() < t_end || !window.empty();) {
      while (window.size() < kFloodWindow && Clock::now() < t_end) {
        window.push_back(
            s.server.submit(request_input(80000 + k++), {.client_id = 0}));
        ++flood.submitted;
      }
      if (window.empty()) break;
      tally(window.front(), flood);
      window.pop_front();
    }
  });
  const LoadResult victims =
      drive(s.server, {.qps = kVictims * kVictimQps,
                       .per_client = std::numeric_limits<size_t>::max(),
                       .until = t_end,
                       .arrival_seed = 0xFA1,
                       .input_seed = 90000,
                       .input_stride = 4000,
                       .clients = kVictims,
                       .first_client = 1});
  flooder.join();
  s.server.shutdown();

  Report r;
  Json clients = Json::array();
  auto row = [&](const ClientTally& t, bool flooder_row) {
    clients.push({{"client", t.client}, {"flooder", flooder_row},
                  {"submitted", t.submitted}, {"completed", t.completed},
                  {"shed_or_rejected", t.errored}});
  };
  row(flood, true);
  for (const ClientTally& v : victims.clients) {
    row(v, false);
    r.gate("fairness/client" + std::to_string(v.client) + "_completed",
           v.completed, "==", v.submitted);
  }
  r.metrics["fairness"] = {{"admission", "shed_oldest"},
                           {"duration_s", kDuration.count()},
                           {"victim_offered_qps", kVictimQps},
                           {"clients", clients}};
  return r;
}

Report run_deadlines(Models& m) {
  constexpr double kTtlMs = 30.0;
  constexpr size_t kCalibrationBurst = 256;
  /// How many ttls the no-ttl backlog takes to drain.
  constexpr double kDrainTtls = 2.0;
  // One replica on purpose: the overload has to queue somewhere for the
  // deadline to matter.
  const serve::ServeConfig cfg{
      .batching = {.max_batch_size = 8, .max_wait_us = 1000}};
  // The replica's service rate under this config: a burst's deep backlog
  // fills every batch, as the overload below does. Take the best of three
  // bursts; a stall on a shared host only ever slows one down, and an
  // underestimate would offer too little load to build the backlog.
  double service_qps = 0.0;
  {
    LanServer s({m.m0.get()}, cfg);
    for (int i = 0; i < 3; ++i)
      service_qps = std::max(
          service_qps,
          kCalibrationBurst / run_burst(s.server, kCalibrationBurst));
  }
  // Offered at twice the service rate, n arrivals leave a backlog of n/2
  // that takes n / (2 * service_qps) to drain: size n to kDrainTtls ttls.
  Load load{.qps = 2.0 * service_qps,
            .per_client = static_cast<size_t>(std::ceil(
                2.0 * service_qps * kDrainTtls * 1e-3 * kTtlMs / kClients)),
            .arrival_seed = 0xD34D,
            .input_seed = 110000};
  const serve::ServeStats plain = drive_fresh({m.m0.get()}, cfg, load);
  load.ttl = std::chrono::microseconds(static_cast<int64_t>(1e3 * kTtlMs));
  LoadResult ttl_load;
  const serve::ServeStats ttl =
      drive_fresh({m.m0.get()}, cfg, load, &ttl_load);
  const double p99_plain = 1e3 * plain.percentile(99);
  const double p99_ttl = 1e3 * ttl.percentile(99);
  Report r;
  r.metrics["deadlines"] = {
      {"offered_qps", load.qps},
      {"ttl_ms", kTtlMs},
      {"no_ttl", {{"completed", plain.completed}, {"p99_ms", p99_plain}}},
      {"ttl",
       {{"completed", ttl.completed}, {"expired", ttl.expired},
        {"p99_ms", p99_ttl}}}};
  r.gate("deadlines/exercised", p99_plain, ">", kTtlMs, /*exercise=*/true);
  r.gate("deadlines/ttl_expired", ttl.expired, ">=", 1);
  r.gate("deadlines/ttl_completed_plus_expired", ttl.completed + ttl.expired,
         "==", ttl_load.sum(&ClientTally::submitted));
  r.gate("deadlines/ttl_p99_ms", p99_ttl, "<", p99_plain);
  return r;
}

Report run_autoscale(Models& m) {
  constexpr size_t kBurst = 256;
  // Per-request service (no coalescing) on a single-lane runtime: each
  // worker's kernels run serially, so capacity scales with replicas and
  // the burst isolates what the autoscaler buys (with the default pool a
  // lone replica already spreads every kernel across all cores).
  runtime::set_num_threads(1);
  const serve::BatchingPolicy per_request{.max_batch_size = 1,
                                          .max_wait_us = 0};
  double static_wall_s = 0.0;
  {
    LanServer s({m.m0.get()}, {.batching = per_request});
    static_wall_s = run_burst(s.server, kBurst);
    s.server.shutdown();
  }
  serve::ServeConfig cfg{.batching = per_request};
  cfg.autoscale = {.enabled = true,
                   .min_replicas = 1,
                   .max_replicas = 3,
                   .scale_up_backlog = 4.0,
                   .scale_down_backlog = 0.5,
                   .interval_us = 5000,
                   .hysteresis_ticks = 2,
                   .make_replica = [] { return make_replica(77); }};
  std::vector<sc::InferenceResult> results;
  size_t max_seen = 0;
  LanServer s({m.m0.get()}, cfg);
  const double autoscaled_wall_s =
      run_burst(s.server, kBurst, &results, &max_seen);
  // Give the controller a moment to retire the burst capacity.
  for (int t = 0;
       t < 400 && s.server.num_workers() > cfg.autoscale.min_replicas; ++t)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const size_t final_replicas = s.server.num_workers();
  s.server.shutdown();
  const serve::ServeStats st = s.server.stats();
  runtime::set_num_threads(runtime::default_num_threads());
  // Autoscaled results (some served by minted replicas) must match the
  // sequential reference bit for bit.
  sc::Channel ref_ch(kLan);
  sc::ScDeployment ref(*m.ref, ref_ch, sc::jetson_nano(),
                       sc::rtx3090_server());
  int64_t diverged = 0;
  for (uint64_t i = 0; i < results.size(); ++i)
    diverged += !same_logits(results[i], ref.infer(request_input(120000 + i)));
  Report r;
  r.metrics["autoscale"] = {
      {"burst", kBurst},
      // Replica parallelism only buys wall-clock on a multi-core host; the
      // speedup figure is meaningless without this context.
      {"hardware_threads", std::thread::hardware_concurrency()},
      {"static_wall_s", static_wall_s},
      {"autoscaled_wall_s", autoscaled_wall_s},
      {"speedup",
       autoscaled_wall_s > 0.0 ? static_wall_s / autoscaled_wall_s : 0.0},
      {"max_replicas_seen", max_seen},
      {"scale_ups", st.scale_ups}, {"scale_downs", st.scale_downs},
      {"final_replicas", final_replicas},
      {"bitwise_identical_to_sequential", diverged == 0}};
  r.gate("autoscale/diverged_requests", diverged, "==", 0);
  r.gate("autoscale/scale_ups", st.scale_ups, ">=", 1);
  r.gate("autoscale/max_replicas_seen", max_seen, "<=",
         cfg.autoscale.max_replicas);
  r.gate("autoscale/final_replicas", final_replicas, "==",
         cfg.autoscale.min_replicas);
  return r;
}

// ------------------------------------------------------------------ wire

constexpr int64_t kWireImage = 48;  // VGG edge: Z_b = 2304 ReLU'd floats
constexpr size_t kWireRequests = 32;
/// The packetised link under every wire cell; each cell sets its loss
/// rate and FEC group.
const sc::LinkModel kWireLink{
    .mtu_bytes = 256, .jitter_s = 0.0001, .max_retransmits = 8};

/// FEC overhead knob of one sweep cell: parity / data packet rate. 0
/// disables FEC; 1/8 maps to G=8 P=1, 1/4 to G=8 P=2.
struct FecRate {
  double overhead = 0.0;
  int64_t fec_data = 0;
  int64_t fec_parity = 0;
};
constexpr FecRate kFecRates[] = {
    {0.0, 0, 0}, {1.0 / 8.0, 8, 1}, {1.0 / 4.0, 8, 2}};

Report run_wire(Models&) {
  // A ReLU-tail backbone: the bottleneck is ~half exact zeros, the sparse
  // payload class the entropy codec is specialised for.
  auto model = make_replica(11, models::BackboneKind::kVgg16, kWireImage);
  // Clean sequential reference: same int8 encoding, no codec, no loss —
  // the codec is lossless and loss is repaired below the quantise
  // boundary, so served logits must match this bit for bit. The served
  // model doubles as the reference: the loop below runs strictly before
  // any server exists, and eval-mode forward never writes parameters.
  std::vector<sc::InferenceResult> want;
  {
    sc::Channel ref_ch({.bandwidth_bps = 1e9});
    sc::ScDeployment ref(*model, ref_ch, sc::jetson_nano(),
                         sc::rtx3090_server(),
                         {.encoding = sc::ZbEncoding::kInt8});
    for (uint64_t i = 0; i < kWireRequests; ++i)
      want.push_back(ref.infer(request_input(200000 + i, kWireImage)));
  }
  Report r;
  Json& w = r.metrics["wire"] = {
      {"backbone", "vgg16-edge"}, {"image", kWireImage}, {"encoding", "int8"},
      {"mtu_bytes", kWireLink.mtu_bytes},
      {"max_retransmits", kWireLink.max_retransmits}};
  Json& cells = w["cells"] = Json::array();
  int64_t unsettled = 0, diverged_cells = 0, undelivered = 0;
  int64_t fec1_retransmits = 0, fec1_repaired = 0;
  double max_codec_ratio = 0.0, clean_fec_goodput = 0.0, clean_goodput = 0.0;
  double bare_retransmits = std::numeric_limits<double>::infinity();
  // One burst of int8 requests through a packetised lossy link; returns
  // the cell's goodput.
  auto cell = [&](bool codec, double loss_pct, const FecRate& fec) {
    sc::ChannelConfig link_cfg{
        .bandwidth_bps = 1e8, .base_latency_s = 0.0002,
        .seed = 1234 + static_cast<uint64_t>(loss_pct * 100),
        .link = kWireLink};
    link_cfg.link.loss_prob = static_cast<float>(loss_pct / 100.0);
    link_cfg.link.fec_data = fec.fec_data;
    link_cfg.link.fec_parity = fec.fec_parity;
    sc::Channel link(link_cfg);
    serve::ScServer server(
        {model.get()}, link, sc::jetson_nano(), sc::rtx3090_server(),
        {.batching = {.max_batch_size = 4, .max_wait_us = 1000},
         .deployment = {.encoding = sc::ZbEncoding::kInt8,
                        .codec = codec ? sc::WireCodec::kEntropy
                                       : sc::WireCodec::kRaw}});
    std::vector<std::future<sc::InferenceResult>> futures;
    for (uint64_t i = 0; i < kWireRequests; ++i)
      futures.push_back(server.submit(request_input(200000 + i, kWireImage),
                                      {.client_id = i % 4}));
    int64_t settled = 0;
    bool bitwise = true;
    for (size_t i = 0; i < futures.size(); ++i) {
      try {
        bitwise = same_logits(futures[i].get(), want[i]) && bitwise;
      } catch (const std::invalid_argument&) {
        // A typed wire failure still settles exactly once.
      }
      ++settled;
    }
    server.shutdown();
    const serve::ServeStats s = server.stats();
    const double ratio = s.wire_bytes_raw > 0
                             ? static_cast<double>(s.wire_bytes) /
                                   static_cast<double>(s.wire_bytes_raw)
                             : 0.0;
    cells.push({{"codec", codec}, {"loss_pct", loss_pct},
                {"fec_overhead", fec.overhead}, {"fec_data", fec.fec_data},
                {"fec_parity", fec.fec_parity},
                {"submitted", kWireRequests}, {"settled", settled},
                {"completed", s.completed}, {"failed", s.failed},
                {"wire_bytes_raw", s.wire_bytes_raw},
                {"wire_bytes", s.wire_bytes}, {"compression_ratio", ratio},
                {"retransmits", s.retransmits},
                {"fec_repaired", s.fec_repaired},
                {"undelivered", s.undelivered},
                {"goodput_bytes_s", s.goodput_bytes_s()},
                {"window", s.link_window},
                {"p99_ms", 1e3 * s.percentile(99)}, {"bitwise", bitwise}});
    unsettled += static_cast<int64_t>(kWireRequests) - settled;
    diverged_cells += !bitwise;
    undelivered += s.undelivered;
    if (codec) max_codec_ratio = std::max(max_codec_ratio, ratio);
    if (loss_pct >= 5.0 && fec.fec_parity == 0)
      bare_retransmits =
          std::min(bare_retransmits, static_cast<double>(s.retransmits));
    if (codec && loss_pct == 1.0 && fec.fec_parity == 1) {
      fec1_retransmits = s.retransmits;
      fec1_repaired = s.fec_repaired;
    }
    if (codec && loss_pct == 0.0) {
      double& slot = fec.fec_parity > 0 ? clean_fec_goodput : clean_goodput;
      slot = std::max(slot, s.goodput_bytes_s());
    }
    return s.goodput_bytes_s();
  };
  // The production-path sweep: codec on, loss x FEC overhead. Two
  // codec-off baselines ride along so the raw-vs-coded comparison stays
  // in the report.
  for (const double loss : {0.0, 5.0}) cell(false, loss, kFecRates[0]);
  // Repair-vs-retransmit crossover: per loss rate, the FEC overhead that
  // maximised goodput, and the first loss rate where parity beat none.
  Json by_loss = Json::array();
  double first_win = -1.0;
  for (const double loss : {0.0, 1.0, 5.0, 10.0}) {
    double best_goodput = -1.0, best = 0.0;
    for (const FecRate& fec : kFecRates) {
      const double goodput = cell(true, loss, fec);
      if (goodput > best_goodput) {
        best_goodput = goodput;
        best = fec.overhead;
      }
    }
    by_loss.push({{"loss_pct", loss}, {"best_overhead", best}});
    if (best > 0.0 && first_win < 0.0) first_win = loss;
  }
  w["crossover"] = {{"best_overhead_by_loss", by_loss},
                    {"first_loss_pct_where_fec_wins", first_win}};

  r.gate("wire/unsettled_futures", unsettled, "==", 0);
  r.gate("wire/diverged_cells", diverged_cells, "==", 0);
  r.gate("wire/codec_ratio_max", max_codec_ratio, "<=", 0.6);
  // Hundreds of packets cross per cell: at >= 5% loss a bare link must
  // visibly retransmit.
  r.gate("wire/bare_link_retransmits_min", bare_retransmits, ">", 0,
         /*exercise=*/true);
  // Zero-RTT repair: at 1% loss the 1/8-rate parity absorbs every erasure
  // receiver-side. Packets were lost (repairs happened), yet not one
  // retransmit round trip ran.
  r.gate("wire/fec_1pct_repaired", fec1_repaired, ">", 0, /*exercise=*/true);
  r.gate("wire/fec_1pct_retransmits", fec1_retransmits, "==", 0);
  // Nothing in the sweep may leave an erasure standing: FEC or the
  // retransmit budget repairs everything at these loss rates.
  r.gate("wire/undelivered", undelivered, "==", 0);
  // On a clean link parity is pure overhead: goodput must be maximal at
  // FEC off (the crossover's left edge).
  r.gate("wire/clean_link_fec_goodput", clean_fec_goodput, "<",
         clean_goodput);
  w["ok"] = r.ok();
  return r;
}

// ------------------------------------------------------------------- slo

constexpr double kSloStageSeconds = 1.5;
/// Deep enough that a full queue's drain time (depth / saturation rate)
/// sits far beyond the 3x-calibration SLO target — the static knob has
/// no way to hold the tail once the ramp saturates the replica.
constexpr size_t kSloStaticDepth = 512;

/// The slo scenario's server: a deep Reject queue; with @p target_s > 0
/// the SloController drives its depth.
serve::ServeConfig slo_config(double target_s) {
  serve::ServeConfig cfg{
      .batching = {.max_batch_size = 8, .max_wait_us = 1000},
      .admission = {.policy = serve::AdmissionPolicy::kReject,
                    .capacity = kSloStaticDepth}};
  if (target_s > 0.0)
    cfg.slo = {.enabled = true,
               // Control to 60% of the reported SLO: AIMD regulates each
               // window's p99 up against its configured target, so the
               // stage-aggregate tail (which also holds the pre-shrink
               // transients) needs the internal setpoint to sit below
               // the externally gated one.
               .target_p99_s = 0.6 * target_s,
               // At ~saturation-rate completions a 50 ms window carries
               // enough samples to clear min_window_samples every tick.
               .interval_us = 50000,
               .min_window_samples = 4,
               .min_depth = 2};
  return cfg;
}

/// Runs a whole ramp against one server, so the controller's state (and
/// the static queue's backlog) carries across stage boundaries. Stage
/// latencies are client-observed.
Json run_slo_curve(core::MtlSplitModel* m0,
                   const std::vector<double>& stage_qps, double target_s) {
  LanServer s({m0}, slo_config(target_s));
  Json stages = Json::array();
  for (size_t i = 0; i < stage_qps.size(); ++i) {
    const uint64_t seed = 0x510000 + 10000 * i + (target_s > 0.0 ? 5000 : 0);
    const LoadResult l = drive(
        s.server,
        {.qps = stage_qps[i],
         .per_client = std::max<size_t>(
             16, static_cast<size_t>(stage_qps[i] * kSloStageSeconds /
                                     static_cast<double>(kClients))),
         .arrival_seed = seed,
         .input_seed = seed * 131,
         .input_stride = 4096});
    stages.push({{"offered_qps", stage_qps[i]},
                 {"completed", l.sum(&ClientTally::completed)},
                 {"rejected", l.sum(&ClientTally::errored)},
                 {"p99_ms", p99_ms(l.latency_s)}});
  }
  s.server.shutdown();
  Json curve{{"stages", stages}};
  if (target_s > 0.0) {
    const telemetry::Registry& tree = s.server.telemetry_tree();
    curve["ticks"] = tree.counter_value("serve/slo/ticks");
    curve["violations"] = tree.counter_value("serve/slo/violations");
    curve["final_depth_cap"] = tree.gauge_value("serve/slo/depth_cap");
  }
  return curve;
}

Report run_slo(Models& m) {
  core::MtlSplitModel* m0 = m.m0.get();
  const double saturation = probe_saturation_qps({m0});
  // Calibrate the achievable tail: one unsaturated stage under the exact
  // static config. The SLO target is 3x that — generous headroom, yet far
  // below the ~depth/saturation queueing delay a full static queue adds.
  const double calib_p99_ms = run_slo_curve(m0, {0.5 * saturation}, 0.0)
                                  .at("stages").back().at("p99_ms").num();
  const double target_ms = std::max(3.0 * calib_p99_ms, 10.0);
  const std::vector<double> ramp = {0.6, 1.6, 3.0};  // x saturation
  std::vector<double> stage_qps;
  for (const double x : ramp) stage_qps.push_back(x * saturation);
  const Json fixed = run_slo_curve(m0, stage_qps, 0.0);
  const Json controller = run_slo_curve(m0, stage_qps, 1e-3 * target_ms);
  // Only the final stage is gated: the static knob must miss the target
  // there, and the controller must hold it.
  const Json& sf = fixed.at("stages").back();
  const Json& sa = controller.at("stages").back();
  Report r;
  r.gate("slo/static_final_p99_ms", sf.at("p99_ms").num(), ">", target_ms,
         /*exercise=*/true);
  r.gate("slo/controller_final_completed", sa.at("completed").num(), ">", 0);
  r.gate("slo/controller_final_p99_ms", sa.at("p99_ms").num(), "<=",
         target_ms);
  r.gate("slo/controller_ticks", controller.at("ticks").num(), ">", 0);
  r.gate("slo/controller_violations", controller.at("violations").num(), ">",
         0, /*exercise=*/true);
  r.metrics["slo"] = {
      {"admission", "reject"},
      {"static_capacity", slo_config(0.0).admission.capacity},
      {"min_depth", slo_config(1e-3 * target_ms).slo.min_depth},
      {"saturation_qps", saturation}, {"calibration_p99_ms", calib_p99_ms},
      {"target_p99_ms", target_ms}, {"ramp_x_saturation", Json::array(ramp)},
      {"static", fixed}, {"controller", controller},
      {"static_violates_final_stage", r.gates[0].passed()},
      {"controller_holds_final_stage",
       r.gates[1].passed() && r.gates[2].passed()},
      {"ok", r.ok()}};
  return r;
}

// ----------------------------------------------------------------- fleet

/// Chaos drill: a 3-node fleet at peak QPS loses a node. Every in-flight
/// future must settle exactly once (failover for the victim's share), the
/// SWIM detector must fire within its configured miss window, the lost
/// replica must be re-minted on the survivors, and everything served —
/// before, during and after the failover — must stay bitwise identical
/// to sequential infer().
Report run_fleet(Models& m) {
  fleet::FleetConfig cfg;
  cfg.nodes = 3;
  cfg.replicas_per_node = 1;
  cfg.swim.ping_interval_us = 5000;
  cfg.swim.suspect_after = 2;
  cfg.swim.dead_after = 2;
  cfg.serve.batching = {.max_batch_size = 4, .max_wait_us = 500};
  cfg.data_link = kLan;
  cfg.control_link = {.bandwidth_bps = 1e9};
  cfg.make_replica = [] { return make_replica(501); };
  // The configured detection window plus scheduling slack for the prober
  // thread on a loaded host.
  const double detect_budget_ms =
      1e-3 * static_cast<double>(cfg.swim.ping_interval_us) *
          static_cast<double>(cfg.swim.suspect_after + cfg.swim.dead_after) +
      200.0;
  fleet::FleetRouter router(*m.m0, sc::jetson_nano(), sc::rtx3090_server(),
                            cfg);
  const size_t victim = router.route(/*client_id=*/0);

  // Request i is client i, input seeded 300000 + i.
  std::vector<Flight> flights;
  std::vector<int> waves;
  auto fire = [&](int wave) {
    const uint64_t id = flights.size();
    Tensor x = request_input(300000 + id);
    Flight& fl = flights.emplace_back();
    fl.t0 = Clock::now();
    fl.f = router.submit(std::move(x), {.base = {.client_id = id}});
    waves.push_back(wave);
  };
  // Wave 0 — peak: a deep burst across every node's queue.
  for (int i = 0; i < 72; ++i) fire(0);
  const auto t_kill = Clock::now();
  router.kill_node(victim);
  // Wave 1 — racing the detector: paced so submissions keep landing on
  // the victim until it is declared dead, then shift to the survivors.
  for (int i = 0; i < 48; ++i) {
    fire(1);
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  while (router.node_state(victim) != fleet::NodeState::kDead &&
         Clock::now() < t_kill + std::chrono::seconds(10))
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  const double detect_ms = 1e3 * seconds_since(t_kill);
  // Wave 2 — after the failover: clean routing onto the survivors.
  for (int i = 0; i < 24; ++i) fire(2);
  const size_t lost = settle(flights, Clock::now() + std::chrono::seconds(60));

  int64_t settled_value = 0, settled_error = 0;
  double settle_all_ms = 0.0;  // kill -> last pre-death future settled
  std::vector<double> lat_inflight, lat_rebuild;
  for (size_t i = 0; i < flights.size(); ++i) {
    const Flight& fl = flights[i];
    if (!fl.done) continue;
    ++(fl.value ? settled_value : settled_error);
    const double lat =
        std::chrono::duration<double>(fl.ready_at - fl.t0).count();
    if (waves[i] == 0) lat_inflight.push_back(lat);
    if (waves[i] == 1) lat_rebuild.push_back(lat);
    if (waves[i] <= 1)
      settle_all_ms = std::max(
          settle_all_ms,
          1e3 * std::chrono::duration<double>(fl.ready_at - t_kill).count());
  }
  size_t live_replicas_after = 0;
  for (size_t k : router.live_nodes())
    live_replicas_after += router.node_replicas(k);
  router.shutdown();
  const fleet::FleetStats st = router.stats();
  // Every value matches the sequential reference, whichever node (original
  // or re-minted survivor replica) served it.
  sc::Channel ref_ch(kLan);
  sc::ScDeployment ref(*m.m0, ref_ch, sc::jetson_nano(),
                       sc::rtx3090_server());
  int64_t diverged = 0;
  for (uint64_t i = 0; i < flights.size(); ++i)
    if (flights[i].value)
      diverged += !same_logits(*flights[i].value,
                               ref.infer(request_input(300000 + i)));

  Report r;
  const int64_t submitted = static_cast<int64_t>(flights.size());
  // Settle-all completeness (0 lost futures) is the headline contract;
  // everything on a clean data link settles with a value.
  r.gate("fleet/lost_futures", lost, "==", 0);
  r.gate("fleet/settled", settled_value + settled_error, "==", submitted);
  r.gate("fleet/settled_error", settled_error, "==", 0);
  r.gate("fleet/diverged_requests", diverged, "==", 0);
  r.gate("fleet/deaths", st.deaths, "==", 1);
  r.gate("fleet/detect_ms", detect_ms, "<=", detect_budget_ms);
  r.gate("fleet/replicas_reminted", st.replicas_reminted, "==", 1);
  r.gate("fleet/live_replicas_after", live_replicas_after, "==", cfg.nodes);
  r.metrics["fleet"] = {
      {"nodes", cfg.nodes}, {"victim", victim}, {"submitted", submitted},
      {"settled_value", settled_value}, {"settled_error", settled_error},
      {"lost_futures", lost}, {"failovers", st.failovers},
      {"deaths", st.deaths}, {"replicas_reminted", st.replicas_reminted},
      {"live_replicas_after", live_replicas_after},
      {"detect_ms", detect_ms}, {"detect_budget_ms", detect_budget_ms},
      {"settle_all_ms", settle_all_ms},
      {"p99_inflight_at_kill_ms", p99_ms(lat_inflight)},
      {"p99_during_rebuild_ms", p99_ms(lat_rebuild)},
      {"bitwise_identical_to_sequential", diverged == 0},
      {"ok", r.ok()}};
  return r;
}

// ----------------------------------------------------------------- table

struct Scenario {
  const char* key;
  const char* why;
  Report (*run)(Models&);
};

const Scenario kScenarios[] = {
    {"bitwise", "served logits equal sequential infer(), whatever batches form",
     run_bitwise},
    {"load_sweep", "open-loop load x batching policy: does batching coalesce?",
     run_load_sweep},
    {"overload", "Reject admission at 4x the closed-loop saturation rate",
     run_overload},
    {"fairness", "a closed-loop flooder vs 3 open-loop clients, one DRR queue",
     run_fairness},
    {"deadlines", "one replica at 2x its service rate, with and without a ttl",
     run_deadlines},
    {"autoscale", "a burst on a min=1/max=3 autoscaling server vs one replica",
     run_autoscale},
    {"wire", "sparse int8 Z_b over a lossy packet link: codec x loss x FEC",
     run_wire},
    {"slo", "a saturation ramp on a deep Reject queue: static vs controller",
     run_slo},
    {"fleet", "a 3-node fleet loses its routed-to node at peak load",
     run_fleet},
};

}  // namespace

int main() {
  Models models;
  Json root{{"bench", "serving"}};
  Json gates = Json::array();
  std::vector<std::string> failed;
  size_t total = 0;
  for (const Scenario& scenario : kScenarios) {
    std::printf("== %s: %s\n", scenario.key, scenario.why);
    std::fflush(stdout);
    const Report r = scenario.run(models);
    std::printf("%s\n", r.metrics.dump(0).c_str());
    for (const bench::Gate& g : r.gates) {
      g.print();
      gates.push(g.json());
      if (!g.passed()) failed.push_back(g.name + " " + g.verdict);
      ++total;
    }
    std::printf("\n");
    for (const auto& [key, value] : r.metrics.members()) root[key] = value;
  }
  // The top-level flag covers the single-server check and the autoscaled
  // replicas; the wire and fleet scenarios report their own.
  root["bitwise_identical_to_sequential"] =
      root.at("bitwise_identical_to_sequential").num() != 0.0 &&
      root.at("autoscale").at("bitwise_identical_to_sequential").num() != 0.0;
  root["gates"] = gates;
  if (!root.write("BENCH_SERVING.json"))
    std::fprintf(stderr, "cannot write BENCH_SERVING.json\n");
  std::printf("%zu of %zu gates passed; wrote BENCH_SERVING.json\n",
              total - failed.size(), total);
  for (const std::string& f : failed) std::printf("GATE %s\n", f.c_str());
  return failed.empty() ? 0 : 1;
}
