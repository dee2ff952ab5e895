// Trainers: joint MTL training (Eq. 4), evaluation, fine-tuning (Eqs. 5-6),
// and the loss balancer.
#include <gtest/gtest.h>

#include "data/shapes3d.hpp"
#include "mtl/finetune.hpp"
#include "mtl/metrics.hpp"
#include "mtl/model_factory.hpp"
#include "mtl/trainer.hpp"
#include "runtime/thread_pool.hpp"

namespace mtlsplit {
namespace {

data::MultiTaskDataset small_shapes(int64_t count = 160, uint64_t seed = 1) {
  data::Shapes3dConfig cfg;
  cfg.count = count;
  cfg.image_size = 16;
  cfg.noise_frac = 0.0f;  // keep the toy task easy for fast convergence
  cfg.seed = seed;
  return data::make_shapes3d_t1t2(cfg);
}

core::ModelFactoryConfig small_model_cfg() {
  core::ModelFactoryConfig cfg;
  cfg.backbone = models::BackboneKind::kMobileNetV3;
  cfg.image_shape = {3, 16, 16};
  cfg.head_hidden_dim = 32;
  return cfg;
}

TEST(Trainer, LossDecreasesOverEpochs) {
  Rng rng(1);
  const auto ds = small_shapes();
  auto model = core::make_mtl_model(small_model_cfg(),
                                    {ds.task(0), ds.task(1)}, rng);
  core::TrainConfig tc;
  tc.epochs = 4;
  tc.batch_size = 16;
  tc.lr = 3e-3f;
  const auto hist = core::train_model(*model, ds, tc);
  ASSERT_EQ(hist.epoch_loss.size(), 4u);
  ASSERT_EQ(hist.task_loss.size(), 4u);
  EXPECT_LT(hist.epoch_loss.back(), hist.epoch_loss.front());
}

TEST(Trainer, EpochCallbackFires) {
  Rng rng(2);
  const auto ds = small_shapes(64);
  auto model = core::make_mtl_model(small_model_cfg(),
                                    {ds.task(0), ds.task(1)}, rng);
  core::TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 16;
  int called = 0;
  tc.on_epoch = [&](int64_t epoch, float loss) {
    EXPECT_EQ(epoch, called);
    EXPECT_GT(loss, 0.0f);
    ++called;
  };
  core::train_model(*model, ds, tc);
  EXPECT_EQ(called, 2);
}

TEST(Trainer, TaskCountMismatchThrows) {
  Rng rng(3);
  const auto ds = small_shapes(32);
  auto stl = core::make_stl_model(small_model_cfg(), ds.task(0), rng);
  core::TrainConfig tc;
  EXPECT_THROW(core::train_model(*stl, ds, tc), std::invalid_argument);
}

TEST(Trainer, JobsInsidePoolLanesMatchTrainingOnThePool) {
  // bench_paper trains its grids as one parallel_for with one training per
  // chunk: each job's kernels then run serially inside its pool lane, and
  // must compute bitwise what the job computes alone on the whole pool.
  const auto ds = small_shapes(96);
  struct Result {
    std::vector<Tensor> state;
    core::TrainHistory hist;
    std::vector<double> acc;
  };
  auto job = [&](uint64_t seed) {
    Rng rng(seed);
    auto model = core::make_mtl_model(small_model_cfg(),
                                      {ds.task(0), ds.task(1)}, rng);
    core::TrainConfig tc;
    tc.epochs = 1;
    tc.batch_size = 16;
    tc.lr = 3e-3f;
    tc.seed = seed + 100;
    Result r;
    r.hist = core::train_model(*model, ds, tc);
    r.acc = core::evaluate_model(*model, ds);
    for (nn::Parameter* p : model->all_params()) r.state.push_back(p->value);
    for (Tensor* b : model->all_buffers()) r.state.push_back(*b);
    return r;
  };

  const int restore = runtime::num_threads();
  runtime::set_num_threads(4);
  const Result alone[2] = {job(11), job(12)};
  Result in_lanes[2];
  runtime::parallel_for(0, 2, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i)
      in_lanes[i] = job(11 + static_cast<uint64_t>(i));
  });
  runtime::set_num_threads(restore);

  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(alone[i].state.size(), in_lanes[i].state.size());
    for (size_t p = 0; p < alone[i].state.size(); ++p)
      EXPECT_TRUE(alone[i].state[p].equals(in_lanes[i].state[p]))
          << "job " << i << " tensor " << p;
    EXPECT_EQ(alone[i].hist.epoch_loss, in_lanes[i].hist.epoch_loss);
    EXPECT_EQ(alone[i].hist.task_loss, in_lanes[i].hist.task_loss);
    EXPECT_EQ(alone[i].acc, in_lanes[i].acc);
  }
}

TEST(Evaluate, ReturnsPerTaskAccuracyInRange) {
  Rng rng(4);
  const auto ds = small_shapes(64);
  auto model = core::make_mtl_model(small_model_cfg(),
                                    {ds.task(0), ds.task(1)}, rng);
  const auto acc = core::evaluate_model(*model, ds);
  ASSERT_EQ(acc.size(), 2u);
  for (double a : acc) {
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, 1.0);
  }
}

TEST(Evaluate, UntrainedIsNearChance) {
  Rng rng(5);
  const auto ds = small_shapes(512);
  auto model = core::make_mtl_model(small_model_cfg(),
                                    {ds.task(0), ds.task(1)}, rng);
  const auto acc = core::evaluate_model(*model, ds);
  // 8-class and 4-class tasks: untrained nets should sit well below 0.6.
  EXPECT_LT(acc[0], 0.55);
  EXPECT_LT(acc[1], 0.65);
}

TEST(Finetune, FrozenBackboneStaysFixed) {
  Rng rng(6);
  const auto ds = small_shapes(64);
  auto model = core::make_mtl_model(small_model_cfg(),
                                    {ds.task(0), ds.task(1)}, rng);
  std::vector<Tensor> psi_before;
  for (nn::Parameter* p : model->backbone_params())
    psi_before.push_back(p->value);
  std::vector<Tensor> theta_before;
  for (nn::Parameter* p : model->all_head_params())
    theta_before.push_back(p->value);

  core::FinetuneConfig fc;
  fc.epochs = 1;
  fc.batch_size = 16;
  fc.alpha = 1e-2f;
  fc.eta = 0.0f;  // freeze psi
  core::finetune_model(*model, ds, fc);

  const auto psi_after = model->backbone_params();
  for (size_t i = 0; i < psi_before.size(); ++i)
    EXPECT_TRUE(psi_before[i].equals(psi_after[i]->value)) << "psi " << i;
  // Heads must have moved.
  bool any_moved = false;
  const auto theta_after = model->all_head_params();
  for (size_t i = 0; i < theta_before.size(); ++i)
    any_moved |= !theta_before[i].equals(theta_after[i]->value);
  EXPECT_TRUE(any_moved);
}

TEST(Finetune, ConservativeBackboneMovesLessThanHeads) {
  Rng rng(7);
  const auto ds = small_shapes(64);
  auto model = core::make_mtl_model(small_model_cfg(),
                                    {ds.task(0), ds.task(1)}, rng);
  std::vector<Tensor> psi_before;
  for (nn::Parameter* p : model->backbone_params())
    psi_before.push_back(p->value);

  core::FinetuneConfig fc;
  fc.epochs = 1;
  fc.batch_size = 16;
  fc.alpha = 1e-2f;
  fc.eta = 1e-5f;  // eta << alpha (Eq. 6)
  core::finetune_model(*model, ds, fc);

  // Backbone moved, but only slightly (relative change well under heads').
  double psi_delta = 0.0, psi_norm = 0.0;
  const auto psi_after = model->backbone_params();
  for (size_t i = 0; i < psi_before.size(); ++i) {
    for (int64_t k = 0; k < psi_before[i].numel(); ++k) {
      const double d = psi_after[i]->value[k] - psi_before[i][k];
      psi_delta += d * d;
      psi_norm += static_cast<double>(psi_before[i][k]) * psi_before[i][k];
    }
  }
  EXPECT_GT(psi_delta, 0.0);
  EXPECT_LT(psi_delta, 1e-4 * std::max(psi_norm, 1.0));
}

TEST(Finetune, ValidatesRates) {
  Rng rng(8);
  const auto ds = small_shapes(32);
  auto model = core::make_mtl_model(small_model_cfg(),
                                    {ds.task(0), ds.task(1)}, rng);
  core::FinetuneConfig fc;
  fc.alpha = 1e-4f;
  fc.eta = 1e-2f;  // eta > alpha violates Eq. 6's intent
  EXPECT_THROW(core::finetune_model(*model, ds, fc), std::invalid_argument);
}

TEST(Metrics, AccuracyAndConfusion) {
  const Tensor logits({3, 2}, std::vector<float>{2, 1,    // -> 0
                                                 0, 5,    // -> 1
                                                 3, 4});  // -> 1
  const std::vector<int64_t> targets = {0, 1, 0};
  EXPECT_NEAR(core::accuracy(logits, targets), 2.0 / 3.0, 1e-9);
  const auto cm = core::confusion_matrix(logits, targets, 2);
  // true 0: one predicted 0, one predicted 1; true 1: one predicted 1.
  EXPECT_EQ(cm[0], 1);
  EXPECT_EQ(cm[1], 1);
  EXPECT_EQ(cm[2], 0);
  EXPECT_EQ(cm[3], 1);
}

TEST(Metrics, AccuracyMeterStreams) {
  core::AccuracyMeter meter;
  EXPECT_EQ(meter.value(), 0.0);
  const Tensor l1({2, 2}, std::vector<float>{1, 0, 0, 1});
  const std::vector<int64_t> t1 = {0, 1};
  meter.update(l1, t1);
  EXPECT_EQ(meter.value(), 1.0);
  const std::vector<int64_t> t2 = {1, 1};
  meter.update(l1, t2);
  EXPECT_NEAR(meter.value(), 0.75, 1e-9);
  EXPECT_EQ(meter.count(), 4);
  meter.reset();
  EXPECT_EQ(meter.count(), 0);
}

TEST(LossBalancer, UniformIsPlainSum) {
  core::LossBalancer lb(core::LossWeighting::kUniform, 3);
  EXPECT_FLOAT_EQ(lb.weight(0), 1.0f);
  EXPECT_FLOAT_EQ(lb.total_loss({1.0f, 2.0f, 3.0f}), 6.0f);
  lb.update({1.0f, 2.0f, 3.0f});  // no-op
  EXPECT_FLOAT_EQ(lb.weight(2), 1.0f);
}

TEST(LossBalancer, UncertaintyDownweightsNoisyTask) {
  core::LossBalancer lb(core::LossWeighting::kUncertainty, 2, 0.05f);
  // Task 1's loss is persistently large: its weight should fall below
  // task 0's after adaptation.
  for (int step = 0; step < 200; ++step) lb.update({0.5f, 5.0f});
  EXPECT_LT(lb.weight(1), lb.weight(0));
  // Weights stay positive.
  EXPECT_GT(lb.weight(1), 0.0f);
}

TEST(LossBalancer, UncertaintyTotalIncludesRegulariser) {
  core::LossBalancer lb(core::LossWeighting::kUncertainty, 1);
  // s = 0 initially: total = exp(0)*L + 0 = L.
  EXPECT_FLOAT_EQ(lb.total_loss({2.0f}), 2.0f);
  EXPECT_THROW(lb.total_loss({1.0f, 2.0f}), std::invalid_argument);
}

}  // namespace
}  // namespace mtlsplit
