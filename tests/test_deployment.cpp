// LoC / RoC / SC deployment simulators (paper §2.1, §4.2).
#include <gtest/gtest.h>

#include "mtl/model_factory.hpp"
#include "sc/deployment.hpp"

namespace mtlsplit {
namespace {

struct Rig {
  std::unique_ptr<core::MtlSplitModel> model;
  Tensor x;

  explicit Rig(uint64_t seed = 1) {
    Rng rng(seed);
    core::ModelFactoryConfig cfg;
    cfg.backbone = models::BackboneKind::kMobileNetV3;
    cfg.image_shape = {3, 16, 16};
    model = core::make_mtl_model(cfg, {{"a", 4}, {"b", 3}}, rng);
    model->set_training(false);
    x = Tensor({2, 3, 16, 16});
    rng.fill_uniform(x, 0.0f, 1.0f);
  }
};

TEST(ScDeployment, MatchesMonolithicBitwise) {
  Rig rig;
  sc::Channel ch({.bandwidth_bps = 1e9});
  sc::ScDeployment dep(*rig.model, ch, sc::jetson_nano(),
                       sc::rtx3090_server());
  const auto mono = rig.model->forward(rig.x);
  const auto result = dep.infer(rig.x);
  ASSERT_EQ(result.logits.size(), 2u);
  for (size_t j = 0; j < 2; ++j)
    EXPECT_TRUE(result.logits[j].equals(mono[j]))
        << "task " << j << " diverged across the wire";
}

TEST(ScDeployment, Int8EncodingCloseToFp32) {
  Rig rig;
  sc::Channel ch({.bandwidth_bps = 1e9});
  sc::ScDeployment f32(*rig.model, ch, sc::jetson_nano(),
                       sc::rtx3090_server());
  sc::ScDeployment i8(*rig.model, ch, sc::jetson_nano(), sc::rtx3090_server(),
                      {.encoding = sc::ZbEncoding::kInt8});
  const auto rf = f32.infer(rig.x);
  const auto ri = i8.infer(rig.x);
  // int8 payload is ~4x smaller...
  EXPECT_LT(ri.latency.wire.bytes * 3, rf.latency.wire.bytes);
  // ...and logits stay close.
  for (size_t j = 0; j < 2; ++j)
    EXPECT_TRUE(ri.logits[j].allclose(rf.logits[j], 0.35f));
}

TEST(ScDeployment, LatencyComponentsPopulated) {
  Rig rig;
  sc::Channel ch({.bandwidth_bps = 1e6, .base_latency_s = 0.01});
  sc::ScDeployment dep(*rig.model, ch, sc::jetson_nano(),
                       sc::rtx3090_server());
  const auto r = dep.infer(rig.x);
  EXPECT_GT(r.latency.edge_compute_s, 0.0);
  EXPECT_GT(r.latency.wire.time_s, 0.01);
  EXPECT_GT(r.latency.server_compute_s, 0.0);
  EXPECT_GT(r.latency.wire.bytes, 0);
  EXPECT_NEAR(r.latency.total_s(),
              r.latency.edge_compute_s + r.latency.wire.time_s +
                  r.latency.server_compute_s,
              1e-12);
  // Channel statistics recorded the message.
  EXPECT_EQ(ch.messages_sent(), 1);
  EXPECT_EQ(ch.total_bytes(), r.latency.wire.bytes);
}

TEST(ScDeployment, CorruptedChannelRaises) {
  Rig rig;
  sc::Channel ch({.bandwidth_bps = 1e9, .corrupt_prob = 0.3f, .seed = 3});
  sc::ScDeployment dep(*rig.model, ch, sc::jetson_nano(),
                       sc::rtx3090_server());
  EXPECT_THROW(dep.infer(rig.x), std::invalid_argument);
}

TEST(ScDeployment, InferStreamMatchesSequentialBitwise) {
  Rig rig;
  sc::Channel seq_ch({.bandwidth_bps = 1e9});
  sc::ScDeployment seq(*rig.model, seq_ch, sc::jetson_nano(),
                       sc::rtx3090_server());
  std::vector<Tensor> inputs;
  Rng rng(17);
  for (int i = 0; i < 4; ++i) {
    Tensor x({1, 3, 16, 16});
    rng.fill_uniform(x, 0.0f, 1.0f);
    inputs.push_back(std::move(x));
  }
  std::vector<sc::InferenceResult> expected;
  for (const Tensor& x : inputs) expected.push_back(seq.infer(x));

  sc::Channel pipe_ch({.bandwidth_bps = 1e9});
  sc::ScDeployment pipe(*rig.model, pipe_ch, sc::jetson_nano(),
                        sc::rtx3090_server());
  const sc::StreamResult stream = pipe.infer_stream(inputs);
  ASSERT_EQ(stream.results.size(), inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    ASSERT_EQ(stream.results[i].logits.size(), expected[i].logits.size());
    for (size_t j = 0; j < expected[i].logits.size(); ++j)
      EXPECT_TRUE(stream.results[i].logits[j].equals(expected[i].logits[j]))
          << "item " << i << " task " << j
          << " diverged between pipelined and sequential execution";
    EXPECT_DOUBLE_EQ(stream.results[i].latency.total_s(),
                     expected[i].latency.total_s());
    EXPECT_GT(stream.results[i].latency.measured_wall_s, 0.0);
  }
  EXPECT_EQ(pipe_ch.messages_sent(), 4);
  EXPECT_GT(stream.measured_wall_s, 0.0);
  EXPECT_GT(stream.analytic_serial_s, 0.0);
  // Overlapping stages can only help, and the pipeline is never faster
  // than its slowest stage chain.
  EXPECT_LE(stream.analytic_pipelined_s, stream.analytic_serial_s + 1e-12);
  EXPECT_GT(stream.analytic_pipelined_s, 0.0);
}

TEST(ScDeployment, InferStreamPropagatesChannelCorruption) {
  Rig rig;
  sc::Channel ch({.bandwidth_bps = 1e9, .corrupt_prob = 0.3f, .seed = 3});
  sc::ScDeployment dep(*rig.model, ch, sc::jetson_nano(),
                       sc::rtx3090_server());
  std::vector<Tensor> inputs(3, rig.x);
  EXPECT_THROW(dep.infer_stream(inputs), std::invalid_argument);
}

TEST(ScDeployment, InferStreamEmptyInputIsANoop) {
  Rig rig;
  sc::Channel ch({.bandwidth_bps = 1e9});
  sc::ScDeployment dep(*rig.model, ch, sc::jetson_nano(),
                       sc::rtx3090_server());
  const sc::StreamResult r = dep.infer_stream({});
  EXPECT_TRUE(r.results.empty());
  EXPECT_EQ(r.measured_wall_s, 0.0);
}

TEST(RocDeployment, MatchesMonolithicAndShipsRawInput) {
  Rig rig;
  sc::Channel ch({.bandwidth_bps = 1e9, .link = {.mtu_bytes = 256}});
  sc::RocDeployment dep(*rig.model, ch, sc::rtx3090_server());
  const auto mono = rig.model->forward(rig.x);
  const auto r = dep.infer(rig.x);
  for (size_t j = 0; j < 2; ++j)
    EXPECT_TRUE(r.logits[j].equals(mono[j]));
  // RoC wire payload == raw image bytes (+ header).
  EXPECT_GE(r.latency.wire.bytes, rig.x.numel() * 4);
  EXPECT_EQ(r.latency.edge_compute_s, 0.0);
  // The packetised link's tally arrives whole, congestion window included
  // (RoC used to report window 0 here).
  EXPECT_EQ(r.latency.wire, ch.last_message());
  EXPECT_DOUBLE_EQ(r.latency.wire.window, ch.window());
}

TEST(RocVsSc, ScShipsFarFewerBytes) {
  // The §4.2 claim: Z_b is much lighter than the raw input.
  Rig rig;
  sc::Channel ch({.bandwidth_bps = 1e9});
  sc::ScDeployment scd(*rig.model, ch, sc::jetson_nano(),
                       sc::rtx3090_server());
  sc::RocDeployment rocd(*rig.model, ch, sc::rtx3090_server());
  const auto rs = scd.infer(rig.x);
  const auto rr = rocd.infer(rig.x);
  EXPECT_LT(rs.latency.wire.bytes, rr.latency.wire.bytes);
}

TEST(LocDeployment, RunsWhenModelFits) {
  Rig rig;
  sc::LocDeployment dep(*rig.model, sc::jetson_nano());
  ASSERT_TRUE(dep.feasible({3, 16, 16}));
  const auto mono = rig.model->forward(rig.x);
  const auto r = dep.infer(rig.x);
  for (size_t j = 0; j < 2; ++j)
    EXPECT_TRUE(r.logits[j].equals(mono[j]));
  EXPECT_EQ(r.latency.wire, sc::WireTally{});
  EXPECT_GT(r.latency.edge_compute_s, 0.0);
}

TEST(LocDeployment, ThrowsWhenMemoryExceeded) {
  Rig rig;
  sc::DeviceProfile tiny;
  tiny.name = "tiny MCU";
  tiny.memory_bytes = 1024;  // 1 KB: nothing fits
  tiny.effective_gflops = 0.001;
  sc::LocDeployment dep(*rig.model, tiny);
  EXPECT_FALSE(dep.feasible({3, 16, 16}));
  EXPECT_THROW(dep.infer(rig.x), std::runtime_error);
}

TEST(LocDeployment, MemoryGrowsWithHeadCount) {
  Rng rng(9);
  core::ModelFactoryConfig cfg;
  cfg.backbone = models::BackboneKind::kMobileNetV3;
  cfg.image_shape = {3, 16, 16};
  auto two = core::make_mtl_model(cfg, {{"a", 4}, {"b", 3}}, rng);
  auto three =
      core::make_mtl_model(cfg, {{"a", 4}, {"b", 3}, {"c", 2}}, rng);
  sc::LocDeployment d2(*two, sc::jetson_nano());
  sc::LocDeployment d3(*three, sc::jetson_nano());
  EXPECT_GT(d3.memory_bytes({3, 16, 16}), d2.memory_bytes({3, 16, 16}));
}

TEST(DeviceProfiles, PaperHardware) {
  const auto jetson = sc::jetson_nano();
  EXPECT_EQ(jetson.memory_bytes, 4LL << 30);
  const auto server = sc::rtx3090_server();
  EXPECT_GT(server.effective_gflops, jetson.effective_gflops * 10);
  EXPECT_TRUE(jetson.fits(1e9));
  EXPECT_FALSE(jetson.fits(5e9));
  EXPECT_GT(jetson.compute_time(1'000'000'000), 0.0);
}

}  // namespace
}  // namespace mtlsplit
