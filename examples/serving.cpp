// Serving demo: many concurrent clients, one split-computing server.
//
// Builds a small MTL-Split model, stamps out four weight-identical server
// replicas whose workers share one queue, and serves client threads
// through the priority/DRR batcher with Reject admission. Demonstrated along the way:
// a burst beyond queue capacity is refused with a typed RejectedError
// instead of blocking, a high-priority request jumps the coalescing
// window, and a streaming request receives its chunks one future at a
// time. The point to take away: every logit — batched, prioritised or
// streamed — is exactly what a lone sequential infer() would produce.
//
// The SLO lifecycle layer (request deadlines, tenant quotas, replica
// autoscaling) is demonstrated separately in examples/serving_slo.cpp;
// docs/serving.md is the operator guide to every knob used here.
#include <cstdio>
#include <thread>

#include "mtl/model_factory.hpp"
#include "serve/server.hpp"
#include "tensor/tensor_ops.hpp"

using namespace mtlsplit;

int main() {
  // One trained-equivalent model (random weights suffice for the demo)
  // and three replicas that copy its state.
  core::ModelFactoryConfig mc;
  mc.backbone = models::BackboneKind::kMobileNetV3;
  mc.image_shape = {3, 16, 16};
  Rng rng(42);
  auto model = core::make_mtl_model(mc, {{"scale", 8}, {"shape", 4}}, rng);
  std::vector<std::unique_ptr<core::MtlSplitModel>> replicas;
  for (uint64_t r = 0; r < 3; ++r) {
    Rng rr(43 + r);
    replicas.push_back(
        core::make_mtl_model(mc, {{"scale", 8}, {"shape", 4}}, rr));
    core::copy_model_state(*replicas.back(), *model);
  }

  sc::Channel link({.bandwidth_bps = 1e9, .base_latency_s = 0.0005});
  serve::ServeConfig cfg;
  cfg.batching = {.max_batch_size = 4, .max_wait_us = 2000};
  cfg.admission = {.policy = serve::AdmissionPolicy::kReject,
                   .capacity = 32};
  serve::ScServer server({model.get(), replicas[0].get(), replicas[1].get(),
                          replicas[2].get()},
                         link, sc::jetson_nano(), sc::rtx3090_server(), cfg);

  std::printf("ScServer up: %zu workers on one queue, dynamic batching "
              "(max %lld, wait %lld us), Reject admission at depth %zu\n",
              server.num_workers(),
              static_cast<long long>(cfg.batching.max_batch_size),
              static_cast<long long>(cfg.batching.max_wait_us),
              cfg.admission.capacity);

  // --- 4 client threads x 8 requests, mixed priorities, DRR fairness.
  constexpr size_t kClients = 4, kPerClient = 8;
  std::vector<std::vector<std::future<sc::InferenceResult>>> futures(
      kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      Rng crng(100 + c);
      for (size_t k = 0; k < kPerClient; ++k) {
        Tensor x({1, 3, 16, 16});
        crng.fill_uniform(x, 0.0f, 1.0f);
        futures[c].push_back(server.submit(
            std::move(x),
            {.priority = k % 4 == 0 ? serve::Priority::kHigh
                                    : serve::Priority::kNormal,
             .client_id = c}));
      }
    });
  for (auto& t : clients) t.join();
  for (size_t c = 0; c < kClients; ++c)
    for (auto& f : futures[c]) (void)f.get();

  // --- A streaming request: chunk futures resolve in row order while the
  // three-stage pipeline is still pushing later rows through the wire.
  Rng srng(7);
  Tensor stream_x({4, 3, 16, 16});
  srng.fill_uniform(stream_x, 0.0f, 1.0f);
  auto chunks = server.submit_stream(std::move(stream_x));
  std::printf("\nstreaming 4 rows:");
  for (size_t i = 0; i < chunks.size(); ++i) {
    const sc::InferenceResult r = chunks[i].get();
    std::printf(" chunk%zu(%lldB)", i,
                static_cast<long long>(r.latency.wire.bytes));
  }
  std::printf("\n");

  // --- A burst far beyond queue capacity: the surplus is refused with a
  // typed error the moment it arrives; nothing blocks, nothing is lost
  // silently.
  size_t accepted = 0, refused = 0;
  std::vector<std::future<sc::InferenceResult>> burst;
  for (size_t i = 0; i < 256; ++i) {
    Rng brng(900 + i);
    Tensor x({1, 3, 16, 16});
    brng.fill_uniform(x, 0.0f, 1.0f);
    burst.push_back(server.submit(std::move(x), {.client_id = 99}));
  }
  for (auto& f : burst) {
    try {
      (void)f.get();
      ++accepted;
    } catch (const serve::RejectedError&) {
      ++refused;
    }
  }
  std::printf("burst of 256: %zu served, %zu rejected at admission\n",
              accepted, refused);

  server.shutdown();

  const serve::ServeStats s = server.stats();
  std::printf("\nserved %lld requests in %lld batches (%.2f avg batch), "
              "%lld rejected\n",
              static_cast<long long>(s.completed),
              static_cast<long long>(s.batches), s.mean_batch_size(),
              static_cast<long long>(s.rejected));
  std::printf("throughput  %.1f req/s over %.1f ms\n", s.throughput_rps(),
              1e3 * s.wall_s);
  std::printf("latency     p50 %.2f ms | p95 %.2f ms | p99 %.2f ms | "
              "max %.2f ms (P² streaming estimates, O(1) memory)\n",
              1e3 * s.percentile(50), 1e3 * s.percentile(95),
              1e3 * s.percentile(99), 1e3 * s.max_latency_s);
  std::printf("wire        %lld bytes of Z_b\n",
              static_cast<long long>(s.wire_bytes));
  std::printf("batch sizes ");
  for (size_t b = 1; b < s.batch_hist.size(); ++b)
    if (s.batch_hist[b] > 0)
      std::printf("%zux%lld ", b, static_cast<long long>(s.batch_hist[b]));
  std::printf("\n\nEvery one of those logits is bit-identical to what a\n"
              "sequential ScDeployment::infer() would have returned.\n");
  return 0;
}
