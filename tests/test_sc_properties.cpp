// Property-style sweeps over the split-computing layer: invariants that
// must hold for every backbone family, payload size and channel setting.
#include <gtest/gtest.h>

#include "mtl/model_factory.hpp"
#include "sc/deployment.hpp"
#include "sc/partition.hpp"
#include "tensor/serialize.hpp"

namespace mtlsplit {
namespace {

// --- Invariant 1: for every backbone family, split execution over the
// fp32 wire equals monolithic execution bit for bit.
class SplitExactness
    : public ::testing::TestWithParam<models::BackboneKind> {};

TEST_P(SplitExactness, WireTransportIsLossless) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 100);
  core::ModelFactoryConfig cfg;
  cfg.backbone = GetParam();
  cfg.image_shape = {3, 16, 16};
  auto model = core::make_mtl_model(cfg, {{"a", 5}, {"b", 2}, {"c", 3}}, rng);
  model->set_training(false);
  Tensor x({3, 3, 16, 16});
  rng.fill_uniform(x, 0.0f, 1.0f);

  sc::Channel ch({.bandwidth_bps = 1e9});
  sc::ScDeployment dep(*model, ch, sc::jetson_nano(), sc::rtx3090_server());
  const auto mono = model->forward(x);
  const auto wire = dep.infer(x);
  ASSERT_EQ(wire.logits.size(), 3u);
  for (size_t j = 0; j < 3; ++j)
    EXPECT_TRUE(wire.logits[j].equals(mono[j]))
        << models::backbone_name(GetParam()) << " task " << j;
}

TEST_P(SplitExactness, LatencyDecomposesAdditively) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 200);
  core::ModelFactoryConfig cfg;
  cfg.backbone = GetParam();
  cfg.image_shape = {3, 16, 16};
  auto model = core::make_mtl_model(cfg, {{"a", 4}}, rng);
  model->set_training(false);
  Tensor x({2, 3, 16, 16});
  rng.fill_uniform(x, 0.0f, 1.0f);

  sc::Channel ch({.bandwidth_bps = 1e8, .base_latency_s = 0.02});
  sc::ScDeployment dep(*model, ch, sc::jetson_nano(), sc::rtx3090_server());
  const auto r = dep.infer(x);
  EXPECT_GT(r.latency.edge_compute_s, 0.0);
  EXPECT_GE(r.latency.wire.time_s, 0.02);
  EXPECT_GT(r.latency.server_compute_s, 0.0);
  EXPECT_DOUBLE_EQ(r.latency.total_s(),
                   r.latency.edge_compute_s + r.latency.wire.time_s +
                       r.latency.server_compute_s);
  // Transfer time must equal the channel's model for the shipped bytes.
  EXPECT_DOUBLE_EQ(r.latency.wire.time_s,
                   ch.transfer_time(r.latency.wire.bytes));
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, SplitExactness,
                         ::testing::ValuesIn(models::kAllBackbones));

// --- Invariant 2: serialized length always equals the size formula.
class WireSizeFormula : public ::testing::TestWithParam<Shape> {};

TEST_P(WireSizeFormula, MatchesActualEncoding) {
  Rng rng(7);
  Tensor t(GetParam());
  rng.fill_normal(t, 0.0f, 1.0f);
  EXPECT_EQ(static_cast<int64_t>(serialize_tensor(t).size()),
            wire_size_f32(t.shape()));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, WireSizeFormula,
    ::testing::Values(Shape{1}, Shape{17}, Shape{3, 5}, Shape{2, 3, 4},
                      Shape{1, 64, 4, 4}, Shape{2, 1, 1, 1, 6}));

// --- Invariant 3: channel transfer time is affine in bytes and
// monotone in degradation.
TEST(ChannelProperties, AffineInBytes) {
  sc::Channel ch({.bandwidth_bps = 3e8, .base_latency_s = 0.004});
  const double t0 = ch.transfer_time(0);
  for (int64_t bytes : {100, 10'000, 1'000'000}) {
    const double expected =
        t0 + static_cast<double>(bytes) * 8.0 / 3e8;
    EXPECT_NEAR(ch.transfer_time(bytes), expected, 1e-12);
  }
}

TEST(ChannelProperties, MonotoneInDegradation) {
  double prev = 0.0;
  for (double deg : {0.0, 0.2, 0.5, 0.8, 0.95}) {
    sc::Channel ch({.bandwidth_bps = 1e9, .degradation = deg});
    const double t = ch.transfer_time(1'000'000);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

// --- Invariant 4: across random device profiles, the min-latency split
// is never beaten by any other cut.
class PartitionOptimality : public ::testing::TestWithParam<int> {};

TEST_P(PartitionOptimality, SelectedCutIsArgmin) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  auto bb = models::build_backbone(
      {models::BackboneKind::kMobileNetV3, models::BackboneScale::kEdge, 3},
      rng);
  const auto points = sc::enumerate_split_points(*bb, {1, 3, 16, 16});

  sc::DeviceProfile edge{"edge", 1LL << 30,
                         static_cast<double>(rng.uniform(0.5f, 100.0f))};
  sc::DeviceProfile server{"server", 1LL << 34,
                           static_cast<double>(rng.uniform(100.0f, 10000.0f))};
  sc::Channel ch({.bandwidth_bps = static_cast<double>(
                      rng.uniform(1e6f, 1e9f))});
  const size_t best = sc::select_split_min_latency(points, ch, edge, server);
  const double best_lat = points[best].latency_s(ch, edge, server);
  for (const auto& p : points)
    EXPECT_LE(best_lat, p.latency_s(ch, edge, server) + 1e-15);
}

INSTANTIATE_TEST_SUITE_P(RandomRigs, PartitionOptimality,
                         ::testing::Range(0, 8));

// --- Invariant 5: RoC always ships more bytes than SC for these models
// (the backbone compresses), and int8 always ships less than fp32.
TEST(ByteOrdering, RocGreaterThanScGreaterThanInt8) {
  for (auto kind : models::kAllBackbones) {
    Rng rng(static_cast<uint64_t>(kind) + 300);
    core::ModelFactoryConfig cfg;
    cfg.backbone = kind;
    cfg.image_shape = {3, 16, 16};
    auto model = core::make_mtl_model(cfg, {{"a", 3}}, rng);
    model->set_training(false);
    Tensor x({1, 3, 16, 16});
    rng.fill_uniform(x, 0.0f, 1.0f);
    sc::Channel ch({.bandwidth_bps = 1e9});
    sc::RocDeployment roc(*model, ch, sc::rtx3090_server());
    sc::ScDeployment scf(*model, ch, sc::jetson_nano(),
                         sc::rtx3090_server());
    sc::ScDeployment sci(*model, ch, sc::jetson_nano(), sc::rtx3090_server(),
                         {.encoding = sc::ZbEncoding::kInt8});
    const auto br = roc.infer(x).latency.wire.bytes;
    const auto bf = scf.infer(x).latency.wire.bytes;
    const auto bi = sci.infer(x).latency.wire.bytes;
    EXPECT_GT(br, bf) << models::backbone_name(kind);
    EXPECT_GT(bf, bi) << models::backbone_name(kind);
  }
}

}  // namespace
}  // namespace mtlsplit
