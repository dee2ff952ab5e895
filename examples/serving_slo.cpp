// SLO serving demo: deadlines, tenant quotas, and replica autoscaling.
//
// Builds a small MTL-Split model and serves it through ScServer with the
// full lifecycle layer switched on. Three things are demonstrated:
//
//  1. Deadlines — a request submitted with a ttl that has no chance of
//     being met settles with a typed DeadlineExceededError instead of
//     wasting server compute on an answer nobody is waiting for.
//  2. Tenant quotas — a client with a tight token bucket is throttled
//     with a typed ThrottledError (including a retry-after estimate)
//     while a compliant client on the same queue is served everything.
//  3. Autoscaling — a burst drives the backlog over the scale-up
//     threshold, the controller mints replicas (copy_model_state +
//     Channel::fork) up to max_replicas, and once the burst drains it
//     retires them back to min_replicas.
//
// As everywhere in the serving layer: every logit returned — batched,
// stolen, or served by a minted replica — is bit-identical to what a
// lone sequential ScDeployment::infer() would produce.
#include <cstdio>
#include <thread>

#include "mtl/model_factory.hpp"
#include "serve/server.hpp"

using namespace mtlsplit;

namespace {

core::ModelFactoryConfig model_cfg() {
  core::ModelFactoryConfig mc;
  mc.backbone = models::BackboneKind::kMobileNetV3;
  mc.image_shape = {3, 16, 16};
  return mc;
}

std::unique_ptr<core::MtlSplitModel> fresh_model(uint64_t seed) {
  Rng rng(seed);
  auto m = core::make_mtl_model(model_cfg(), {{"scale", 8}, {"shape", 4}},
                                rng);
  m->set_training(false);
  return m;
}

Tensor image(uint64_t seed) {
  Rng rng(seed);
  Tensor x({1, 3, 16, 16});
  rng.fill_uniform(x, 0.0f, 1.0f);
  return x;
}

}  // namespace

int main() {
  auto model = fresh_model(42);

  sc::Channel link({.bandwidth_bps = 1e9, .base_latency_s = 0.0005});
  serve::ServeConfig cfg;
  cfg.batching = {.max_batch_size = 4, .max_wait_us = 2000};
  // Tenant 7 may burst 3 rows and sustain 2 rows/s; everyone else is
  // unlimited.
  cfg.admission.client_quota[7] = {.rate = 2.0, .burst = 3.0};
  // One replica at rest, up to three under load.
  cfg.autoscale = {.enabled = true,
                   .min_replicas = 1,
                   .max_replicas = 3,
                   .scale_up_backlog = 3.0,
                   .scale_down_backlog = 0.5,
                   .interval_us = 5000,
                   .hysteresis_ticks = 2,
                   .make_replica = [] { return fresh_model(777); }};
  serve::ScServer server({model.get()}, link, sc::jetson_nano(),
                         sc::rtx3090_server(), cfg);
  std::printf("ScServer up: %zu worker, autoscale 1..3 replicas, quota on "
              "tenant 7 (burst 3, 2 rows/s)\n\n",
              server.num_workers());

  // --- 1. Deadlines: an impossible ttl is refused before the model runs.
  auto doomed = server.submit(image(1), {.ttl = std::chrono::microseconds(1)});
  try {
    (void)doomed.get();
    std::printf("deadline demo: served (unexpectedly fast!)\n");
  } catch (const serve::DeadlineExceededError& e) {
    std::printf("deadline demo: DeadlineExceededError (phase %d) — the "
                "model never ran\n",
                static_cast<int>(e.phase()));
  }

  // --- 2. Quotas: tenant 7 bursts past its bucket, tenant 8 sails through.
  size_t served7 = 0, throttled7 = 0, served8 = 0;
  double retry_after = 0.0;
  for (uint64_t k = 0; k < 8; ++k) {
    auto f7 = server.submit(image(100 + k), {.client_id = 7});
    auto f8 = server.submit(image(200 + k), {.client_id = 8});
    try {
      (void)f7.get();
      ++served7;
    } catch (const serve::ThrottledError& e) {
      ++throttled7;
      retry_after = e.retry_after_s();
    }
    (void)f8.get();
    ++served8;
  }
  std::printf("quota demo:    tenant 7 served %zu / throttled %zu "
              "(retry in ~%.1fs); tenant 8 served %zu/%zu\n",
              served7, throttled7, retry_after, served8, served8);

  // --- 3. Autoscaling: a burst mints replicas, idleness retires them.
  std::vector<std::future<sc::InferenceResult>> burst;
  for (uint64_t i = 0; i < 96; ++i)
    burst.push_back(server.submit(image(1000 + i), {.client_id = i % 5}));
  size_t peak = server.num_workers();
  for (auto& f : burst) {
    peak = std::max(peak, server.num_workers());
    (void)f.get();
  }
  std::printf("autoscale demo: burst of %zu served, replicas peaked at %zu\n",
              burst.size(), peak);
  for (int t = 0; t < 500 && server.num_workers() > 1; ++t)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  std::printf("                idle again: %zu replica(s) at rest\n",
              server.num_workers());

  server.shutdown();
  const serve::ServeStats s = server.stats();
  std::printf("\nstats: %lld completed | %lld expired | %lld throttled | "
              "%lld scale-ups | %lld scale-downs\n",
              static_cast<long long>(s.completed),
              static_cast<long long>(s.expired),
              static_cast<long long>(s.throttled),
              static_cast<long long>(s.scale_ups),
              static_cast<long long>(s.scale_downs));
  std::printf("latency: p50 %.2f ms | p99 %.2f ms over %.1f ms wall\n",
              1e3 * s.percentile(50), 1e3 * s.percentile(99), 1e3 * s.wall_s);
  std::printf("\nEvery served logit is bit-identical to a sequential\n"
              "ScDeployment::infer() — whichever replica, minted or not,\n"
              "happened to serve it.\n");
  return 0;
}
