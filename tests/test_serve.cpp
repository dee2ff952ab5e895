// Serving layer: request queue, dynamic batcher, batched deployment entry
// point, and the multi-client ScServer (DESIGN.md §8).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "mtl/model_factory.hpp"
#include "serve/server.hpp"
#include "tensor/tensor_ops.hpp"

namespace mtlsplit {
namespace {

using namespace std::chrono_literals;

struct ServeRig {
  std::vector<std::unique_ptr<core::MtlSplitModel>> models;
  Tensor x;  // [1, 3, 16, 16]

  /// @p replicas structurally identical models, all holding model 0's
  /// weights (the ScServer contract).
  explicit ServeRig(size_t replicas = 1, uint64_t seed = 1) {
    core::ModelFactoryConfig cfg;
    cfg.backbone = models::BackboneKind::kMobileNetV3;
    cfg.image_shape = {3, 16, 16};
    for (size_t r = 0; r < replicas; ++r) {
      Rng rng(seed + 100 * r);  // distinct init, overwritten by copy below
      models.push_back(core::make_mtl_model(cfg, {{"a", 4}, {"b", 3}}, rng));
      models.back()->set_training(false);
      if (r > 0) core::copy_model_state(*models.back(), *models[0]);
    }
    Rng rng(seed + 7);
    x = Tensor({1, 3, 16, 16});
    rng.fill_uniform(x, 0.0f, 1.0f);
  }

  Tensor random_input(uint64_t seed) const {
    Rng rng(seed);
    Tensor t({1, 3, 16, 16});
    rng.fill_uniform(t, 0.0f, 1.0f);
    return t;
  }
};

// ------------------------------------------------------------- RequestQueue

TEST(RequestQueue, SubmitPopRoundTrip) {
  serve::RequestQueue q;
  auto fut = q.submit(Tensor({1, 3, 4, 4}, 0.5f));
  EXPECT_EQ(q.size(), 1u);
  serve::Request r;
  ASSERT_TRUE(q.pop(r));
  EXPECT_EQ(r.id, 0u);
  EXPECT_EQ(r.x.size(0), 1);
  sc::InferenceResult res;
  res.logits.push_back(Tensor({1, 2}, 3.0f));
  serve::settle_value(r, std::move(res));
  EXPECT_FLOAT_EQ(fut.get().logits[0][0], 3.0f);
  EXPECT_EQ(q.accepted(), 1u);
}

TEST(RequestQueue, CloseRejectsSubmitAndDrains) {
  serve::RequestQueue q;
  (void)q.submit(Tensor({1, 1, 2, 2}));
  q.close();
  EXPECT_THROW((void)q.submit(Tensor({1, 1, 2, 2})), std::runtime_error);
  serve::Request r;
  EXPECT_TRUE(q.pop(r));   // queued work still drains
  EXPECT_FALSE(q.pop(r));  // then closed + empty
}

TEST(RequestQueue, RejectsNonBatchInput) {
  serve::RequestQueue q;
  EXPECT_THROW((void)q.submit(Tensor({3, 4})), std::invalid_argument);
}

TEST(RequestQueue, CapacityExertsBackpressure) {
  serve::RequestQueue q(/*capacity=*/1);
  (void)q.submit(Tensor({1, 1, 2, 2}));
  std::atomic<bool> second_accepted{false};
  std::thread producer([&] {
    (void)q.submit(Tensor({1, 1, 2, 2}));
    second_accepted = true;
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(second_accepted);  // full: the producer is blocked
  serve::Request r;
  ASSERT_TRUE(q.pop(r));
  producer.join();
  EXPECT_TRUE(second_accepted);
}

TEST(RequestQueue, PopUntilTimesOutWhenIdle) {
  serve::RequestQueue q;
  serve::Request r;
  EXPECT_FALSE(
      q.pop_until(r, std::chrono::steady_clock::now() + 5ms));
}

// ----------------------------------------------------------- DynamicBatcher

TEST(DynamicBatcher, CoalescesBackloggedRequestsUpToMaxSize) {
  serve::RequestQueue q;
  for (int i = 0; i < 6; ++i) (void)q.submit(Tensor({1, 1, 2, 2}));
  serve::DynamicBatcher b(q, {.max_batch_size = 4, .max_wait_us = 0});
  std::vector<serve::Request> batch;
  ASSERT_TRUE(b.next_batch(batch));
  EXPECT_EQ(batch.size(), 4u);
  ASSERT_TRUE(b.next_batch(batch));
  EXPECT_EQ(batch.size(), 2u);
  // Settle them so no future is abandoned with a broken promise.
  for (auto& r : batch) serve::settle_value(r, {});
}

TEST(DynamicBatcher, ZeroWaitTakesOnlyWhatIsQueued) {
  serve::RequestQueue q;
  (void)q.submit(Tensor({1, 1, 2, 2}));
  serve::DynamicBatcher b(q, {.max_batch_size = 8, .max_wait_us = 0});
  std::vector<serve::Request> batch;
  ASSERT_TRUE(b.next_batch(batch));
  EXPECT_EQ(batch.size(), 1u);
}

TEST(DynamicBatcher, WaitWindowPicksUpLateArrivals) {
  serve::RequestQueue q;
  serve::DynamicBatcher b(q, {.max_batch_size = 4, .max_wait_us = 200000});
  std::thread producer([&] {
    (void)q.submit(Tensor({1, 1, 2, 2}));
    std::this_thread::sleep_for(10ms);
    (void)q.submit(Tensor({1, 1, 2, 2}));
  });
  std::vector<serve::Request> batch;
  ASSERT_TRUE(b.next_batch(batch));
  producer.join();
  EXPECT_EQ(batch.size(), 2u);  // the late arrival joined the batch
  q.close();
  ASSERT_FALSE(b.next_batch(batch));
}

TEST(DynamicBatcher, HighPriorityLeaderSkipsTheWaitWindow) {
  serve::RequestQueue q;
  telemetry::Registry reg;
  serve::DynamicBatcher b(q, {.max_batch_size = 4, .max_wait_us = 2000000},
                          &reg, "batcher");
  (void)q.submit(Tensor({1, 1, 2, 2}), {.priority = serve::Priority::kHigh});
  std::vector<serve::Request> batch;
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(b.next_batch(batch));
  // A normal leader would idle out the whole 2 s window for company.
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 500ms);
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(reg.counter_value("batcher/jumps"), 1);
}

// --------------------------------------------------------------- infer_batch

TEST(InferBatch, BitwiseIdenticalToPerRequestInferFp32) {
  ServeRig rig;
  sc::Channel ch({.bandwidth_bps = 1e9, .base_latency_s = 0.001});
  sc::ScDeployment dep(*rig.models[0], ch, sc::jetson_nano(),
                       sc::rtx3090_server());
  std::vector<Tensor> inputs;
  for (uint64_t i = 0; i < 5; ++i) inputs.push_back(rig.random_input(30 + i));

  std::vector<sc::InferenceResult> expected;
  for (const Tensor& x : inputs) expected.push_back(dep.infer(x));

  const sc::BatchResult br = dep.infer_batch(ops::concat_batch(inputs));
  ASSERT_EQ(br.items.size(), inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    ASSERT_TRUE(br.items[i].ok());
    const auto& got = br.items[i].result;
    ASSERT_EQ(got.logits.size(), expected[i].logits.size());
    for (size_t j = 0; j < got.logits.size(); ++j)
      EXPECT_TRUE(got.logits[j].equals(expected[i].logits[j]))
          << "request " << i << " task " << j << " diverged in the batch";
    EXPECT_DOUBLE_EQ(got.latency.edge_compute_s,
                     expected[i].latency.edge_compute_s);
    EXPECT_DOUBLE_EQ(got.latency.server_compute_s,
                     expected[i].latency.server_compute_s);
    EXPECT_EQ(got.latency.wire, expected[i].latency.wire);
  }
}

TEST(InferBatch, BitwiseIdenticalToPerRequestInferInt8) {
  // Per-sample quantisation parameters are what make this hold: a
  // whole-batch scale would couple each request's logits to its batchmates.
  ServeRig rig;
  sc::Channel ch({.bandwidth_bps = 1e9});
  sc::ScDeployment dep(*rig.models[0], ch, sc::jetson_nano(),
                       sc::rtx3090_server(),
                       {.encoding = sc::ZbEncoding::kInt8});
  std::vector<Tensor> inputs;
  for (uint64_t i = 0; i < 4; ++i) inputs.push_back(rig.random_input(50 + i));
  std::vector<sc::InferenceResult> expected;
  for (const Tensor& x : inputs) expected.push_back(dep.infer(x));

  const sc::BatchResult br = dep.infer_batch(ops::concat_batch(inputs));
  for (size_t i = 0; i < inputs.size(); ++i) {
    ASSERT_TRUE(br.items[i].ok());
    for (size_t j = 0; j < expected[i].logits.size(); ++j)
      EXPECT_TRUE(
          br.items[i].result.logits[j].equals(expected[i].logits[j]))
          << "int8 request " << i << " task " << j << " diverged";
  }
}

TEST(InferBatch, CrcFailureMidBatchPoisonsOnlyTheCorruptedRequest) {
  ServeRig rig;
  std::vector<Tensor> inputs;
  for (uint64_t i = 0; i < 8; ++i) inputs.push_back(rig.random_input(70 + i));
  const Tensor batch = ops::concat_batch(inputs);

  // Clean reference for the surviving requests.
  sc::Channel clean({.bandwidth_bps = 1e9});
  sc::ScDeployment ref(*rig.models[0], clean, sc::jetson_nano(),
                       sc::rtx3090_server());
  const sc::BatchResult want = ref.infer_batch(batch);

  // Find a deterministic seed whose corruption stream hits some but not all
  // of the 8 messages; the per-byte corruption makes one inevitable fast.
  for (uint64_t seed = 0; seed < 64; ++seed) {
    sc::Channel noisy({.bandwidth_bps = 1e9,
                       .corrupt_prob = 0.0004f,
                       .seed = seed});
    sc::ScDeployment dep(*rig.models[0], noisy, sc::jetson_nano(),
                         sc::rtx3090_server());
    const sc::BatchResult got = dep.infer_batch(batch);
    size_t failed = 0;
    for (const auto& item : got.items) failed += item.ok() ? 0 : 1;
    if (failed == 0 || failed == got.items.size()) continue;

    for (size_t i = 0; i < got.items.size(); ++i) {
      if (!got.items[i].ok()) {
        EXPECT_THROW(std::rethrow_exception(got.items[i].error),
                     std::invalid_argument);
        EXPECT_TRUE(got.items[i].result.logits.empty());
      } else {
        for (size_t j = 0; j < want.items[i].result.logits.size(); ++j)
          EXPECT_TRUE(got.items[i].result.logits[j].equals(
              want.items[i].result.logits[j]))
              << "survivor " << i << " diverged from the clean run";
      }
    }
    return;  // found a mixed outcome and verified it
  }
  FAIL() << "no seed produced a partially corrupted batch";
}

// -------------------------------------------------------------- Channel fork

TEST(Channel, ForkKeepsLatencyModelAndDecorrelatesSessions) {
  sc::Channel base({.bandwidth_bps = 1e6,
                    .base_latency_s = 0.01,
                    .corrupt_prob = 0.5f,
                    .seed = 9});
  sc::Channel a = base.fork(0);
  sc::Channel b = base.fork(1);
  EXPECT_DOUBLE_EQ(a.transfer_time(1000), base.transfer_time(1000));
  EXPECT_NE(a.config().seed, b.config().seed);
  EXPECT_NE(a.config().seed, base.config().seed);
  // Sessions have independent stats.
  (void)a.transmit(std::vector<uint8_t>(16, 0));
  EXPECT_EQ(a.messages_sent(), 1);
  EXPECT_EQ(b.messages_sent(), 0);
  EXPECT_EQ(base.messages_sent(), 0);
}

// ------------------------------------------------------------------ ScServer

TEST(ScServer, ServesManyClientsBitwiseIdenticalToSequentialInfer) {
  const size_t kClients = 4, kPerClient = 6;
  ServeRig rig(/*replicas=*/2);

  // Sequential reference on a third, weight-identical replica.
  ServeRig ref_rig(1);
  core::copy_model_state(*ref_rig.models[0], *rig.models[0]);
  sc::Channel ref_ch({.bandwidth_bps = 1e9, .base_latency_s = 0.0005});
  sc::ScDeployment ref(*ref_rig.models[0], ref_ch, sc::jetson_nano(),
                       sc::rtx3090_server());

  std::vector<Tensor> inputs;
  std::vector<sc::InferenceResult> expected;
  for (size_t i = 0; i < kClients * kPerClient; ++i) {
    inputs.push_back(rig.random_input(900 + i));
    expected.push_back(ref.infer(inputs.back()));
  }

  sc::Channel link({.bandwidth_bps = 1e9, .base_latency_s = 0.0005});
  serve::ScServer server({rig.models[0].get(), rig.models[1].get()}, link,
                         sc::jetson_nano(), sc::rtx3090_server(),
                         {.batching = {.max_batch_size = 4,
                                       .max_wait_us = 2000}});
  ASSERT_EQ(server.num_workers(), 2u);

  std::vector<std::future<sc::InferenceResult>> futures(inputs.size());
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      for (size_t k = 0; k < kPerClient; ++k) {
        const size_t i = c * kPerClient + k;
        futures[i] = server.submit(inputs[i]);
      }
    });
  for (auto& t : clients) t.join();

  for (size_t i = 0; i < futures.size(); ++i) {
    const sc::InferenceResult got = futures[i].get();
    ASSERT_EQ(got.logits.size(), expected[i].logits.size());
    for (size_t j = 0; j < got.logits.size(); ++j)
      EXPECT_TRUE(got.logits[j].equals(expected[i].logits[j]))
          << "request " << i << " task " << j
          << " diverged between served and sequential execution";
    EXPECT_DOUBLE_EQ(got.latency.total_s(), expected[i].latency.total_s());
  }

  server.shutdown();
  const serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.completed,
            static_cast<int64_t>(kClients * kPerClient));
  EXPECT_EQ(stats.failed, 0);
  EXPECT_GE(stats.batches, 6);  // 24 requests / max_batch_size 4
  EXPECT_GT(stats.wire_bytes, 0);
  EXPECT_GT(stats.wall_s, 0.0);
  EXPECT_GT(stats.throughput_rps(), 0.0);
  // The histogram accounts for every request and every batch.
  int64_t hist_batches = 0, hist_requests = 0;
  for (size_t b = 0; b < stats.batch_hist.size(); ++b) {
    hist_batches += stats.batch_hist[b];
    hist_requests += static_cast<int64_t>(b) * stats.batch_hist[b];
  }
  EXPECT_EQ(hist_batches, stats.batches);
  EXPECT_EQ(hist_requests, stats.completed + stats.failed);
  // Percentiles are ordered and drawn from real measurements.
  EXPECT_GT(stats.percentile(50), 0.0);
  EXPECT_LE(stats.percentile(50), stats.percentile(95));
  EXPECT_LE(stats.percentile(95), stats.percentile(99));
}

TEST(ScServer, Int8EncodingStaysBitwiseIdenticalToSequentialInt8) {
  ServeRig rig(1);
  ServeRig ref_rig(1);
  core::copy_model_state(*ref_rig.models[0], *rig.models[0]);
  sc::Channel ref_ch({.bandwidth_bps = 1e9});
  sc::ScDeployment ref(*ref_rig.models[0], ref_ch, sc::jetson_nano(),
                       sc::rtx3090_server(),
                       {.encoding = sc::ZbEncoding::kInt8});

  sc::Channel link({.bandwidth_bps = 1e9});
  serve::ScServer server(
      {rig.models[0].get()}, link, sc::jetson_nano(), sc::rtx3090_server(),
      {.batching = {.max_batch_size = 4, .max_wait_us = 1000},
       .deployment = {.encoding = sc::ZbEncoding::kInt8}});

  std::vector<Tensor> inputs;
  std::vector<std::future<sc::InferenceResult>> futures;
  for (uint64_t i = 0; i < 8; ++i) {
    inputs.push_back(rig.random_input(400 + i));
    futures.push_back(server.submit(inputs.back()));
  }
  for (size_t i = 0; i < inputs.size(); ++i) {
    const auto got = futures[i].get();
    const auto want = ref.infer(inputs[i]);
    for (size_t j = 0; j < want.logits.size(); ++j)
      EXPECT_TRUE(got.logits[j].equals(want.logits[j]))
          << "int8 served request " << i << " diverged";
  }
}

TEST(ScServer, MultiSampleRequestIsServedAsOneUnit) {
  ServeRig rig(1);
  sc::Channel link({.bandwidth_bps = 1e9});
  serve::ScServer server({rig.models[0].get()}, link, sc::jetson_nano(),
                         sc::rtx3090_server());
  Rng rng(61);
  Tensor x3({3, 3, 16, 16});
  rng.fill_uniform(x3, 0.0f, 1.0f);
  auto fut = server.submit(x3.clone());
  const sc::InferenceResult got = fut.get();
  const auto mono = rig.models[0]->forward(x3);
  ASSERT_EQ(got.logits.size(), mono.size());
  for (size_t j = 0; j < mono.size(); ++j) {
    ASSERT_EQ(got.logits[j].size(0), 3);
    EXPECT_TRUE(got.logits[j].equals(mono[j]))
        << "multi-sample request task " << j << " diverged from monolithic";
  }
  // Merged latency accounts for all three rows: each crossed as its own
  // wire message and each carries per-sample compute.
  sc::Channel ref_ch({.bandwidth_bps = 1e9});
  sc::ScDeployment ref(*rig.models[0], ref_ch, sc::jetson_nano(),
                       sc::rtx3090_server());
  const sc::InferenceResult one = ref.infer(ops::slice_batch(x3, 0, 1));
  EXPECT_DOUBLE_EQ(got.latency.edge_compute_s, 3 * one.latency.edge_compute_s);
  EXPECT_DOUBLE_EQ(got.latency.wire.time_s, 3 * one.latency.wire.time_s);
  EXPECT_DOUBLE_EQ(got.latency.server_compute_s,
                   3 * one.latency.server_compute_s);
  EXPECT_EQ(got.latency.wire.bytes, 3 * one.latency.wire.bytes);
  server.shutdown();
  EXPECT_EQ(server.stats().completed, 1);

  // Over a packetised link the merged tally is all three messages', not
  // row 0's: the window is the session's after the last row, and goodput
  // is summed bytes over summed time.
  sc::Channel session({.bandwidth_bps = 1e9,
                       .base_latency_s = 0.0001,
                       .link = {.mtu_bytes = 64}});
  serve::ScServer packetised({rig.models[0].get()}, {&session},
                             sc::jetson_nano(), sc::rtx3090_server());
  const sc::InferenceResult pk = packetised.submit(x3.clone()).get();
  packetised.shutdown();
  EXPECT_EQ(session.messages_sent(), 3);
  EXPECT_EQ(pk.latency.wire, session.totals());
  EXPECT_DOUBLE_EQ(pk.latency.wire.window, session.window());
}

TEST(ScServer, StreamedChunksAreBitwiseIdenticalToSequentialInfer) {
  ServeRig rig(1);
  ServeRig ref_rig(1);
  core::copy_model_state(*ref_rig.models[0], *rig.models[0]);
  sc::Channel ref_ch({.bandwidth_bps = 1e9});
  sc::ScDeployment ref(*ref_rig.models[0], ref_ch, sc::jetson_nano(),
                       sc::rtx3090_server());

  sc::Channel link({.bandwidth_bps = 1e9});
  serve::ScServer server({rig.models[0].get()}, link, sc::jetson_nano(),
                         sc::rtx3090_server());
  std::vector<Tensor> rows;
  for (uint64_t i = 0; i < 5; ++i) rows.push_back(rig.random_input(700 + i));
  auto chunks = server.submit_stream(ops::concat_batch(rows));
  ASSERT_EQ(chunks.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    const sc::InferenceResult got = chunks[i].get();
    const sc::InferenceResult want = ref.infer(rows[i]);
    ASSERT_EQ(got.logits.size(), want.logits.size());
    for (size_t j = 0; j < want.logits.size(); ++j)
      EXPECT_TRUE(got.logits[j].equals(want.logits[j]))
          << "streamed chunk " << i << " task " << j << " diverged";
  }
  server.shutdown();
  const serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.completed, 1);  // one streaming request
  EXPECT_EQ(stats.failed, 0);
}

TEST(ScServer, QueuePrefixPathsTallyEveryWorkerOfTheOneQueue) {
  // Two workers pop one queue; their wire sessions, the queue and the
  // replica census all report under serve/shard0 — the paths perfbench
  // reads (Registry::counter_value throws on a missing path).
  ServeRig rig(/*replicas=*/2);
  const sc::ChannelConfig cc{.bandwidth_bps = 1e9,
                             .base_latency_s = 0.0001,
                             .link = {.mtu_bytes = 96, .max_retransmits = 8}};
  sc::Channel s0(cc);
  sc::Channel s1(cc);
  serve::ServeConfig cfg;
  cfg.batching = {.max_batch_size = 2, .max_wait_us = 200};
  serve::ScServer server({rig.models[0].get(), rig.models[1].get()},
                         {&s0, &s1}, sc::jetson_nano(), sc::rtx3090_server(),
                         cfg);
  const telemetry::Registry& tree = server.telemetry_tree();
  EXPECT_DOUBLE_EQ(tree.gauge_value("serve/shard0/replicas"), 2.0);
  std::vector<std::future<sc::InferenceResult>> futures;
  for (uint64_t i = 0; i < 8; ++i)
    futures.push_back(server.submit(rig.random_input(910 + i),
                                    {.client_id = i % 3}));
  for (auto& f : futures) EXPECT_NO_THROW((void)f.get());
  server.shutdown();
  // Workers park at shutdown, so the census drops to zero.
  EXPECT_DOUBLE_EQ(tree.gauge_value("serve/shard0/replicas"), 0.0);

  const int64_t packets = tree.counter_value("serve/shard0/link/packets");
  EXPECT_GT(packets, 0);
  EXPECT_EQ(packets, s0.totals().packets + s1.totals().packets);
  const serve::ServeStats s = server.stats();
  EXPECT_GE(s.link_window, 1.0);
  EXPECT_DOUBLE_EQ(tree.gauge_value("serve/shard0/link/window"),
                   s.link_window);
  for (const char* leaf : {"rejected", "shed", "expired", "throttled"})
    EXPECT_NE(tree.find_counter(std::string("serve/shard0/queue/") + leaf),
              nullptr)
        << leaf;
  EXPECT_EQ(s.completed, 8);
}

TEST(ScServer, SubmitAfterShutdownThrows) {
  ServeRig rig(1);
  sc::Channel link({.bandwidth_bps = 1e9});
  serve::ScServer server({rig.models[0].get()}, link, sc::jetson_nano(),
                         sc::rtx3090_server());
  server.shutdown();
  server.shutdown();  // idempotent
  EXPECT_THROW((void)server.submit(rig.x.clone()), std::runtime_error);
}

TEST(ScServer, CorruptedChannelFailsFuturesNotTheServer) {
  ServeRig rig(1);
  sc::Channel link({.bandwidth_bps = 1e9, .corrupt_prob = 0.5f, .seed = 5});
  serve::ScServer server({rig.models[0].get()}, link, sc::jetson_nano(),
                         sc::rtx3090_server(),
                         {.batching = {.max_batch_size = 2,
                                       .max_wait_us = 500}});
  std::vector<std::future<sc::InferenceResult>> futures;
  for (uint64_t i = 0; i < 6; ++i)
    futures.push_back(server.submit(rig.random_input(500 + i)));
  size_t failed = 0;
  for (auto& f : futures) {
    try {
      (void)f.get();
    } catch (const std::invalid_argument&) {
      ++failed;  // CRC rejection surfaced through the future
    }
  }
  server.shutdown();
  EXPECT_GT(failed, 0u);  // p(corrupt byte) = 0.5: all messages corrupt
  const serve::ServeStats stats = server.stats();
  EXPECT_EQ(stats.failed, static_cast<int64_t>(failed));
  EXPECT_EQ(stats.completed + stats.failed, 6);
}

}  // namespace
}  // namespace mtlsplit
