// BatchNorm2d: statistics, train/eval behaviour, gradient checks.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/batchnorm.hpp"
#include "test_util.hpp"

namespace mtlsplit {
namespace {

using testing::expect_gradients_match;

TEST(BatchNorm2d, NormalisesBatchStatistics) {
  nn::BatchNorm2d bn(3);
  Rng rng(1);
  Tensor x({4, 3, 5, 5});
  rng.fill_normal(x, 2.0f, 3.0f);
  const Tensor y = bn.forward(x);
  // Per channel, output must have ~zero mean and ~unit variance.
  const int64_t plane = 25;
  for (int64_t c = 0; c < 3; ++c) {
    double sum = 0.0, sq = 0.0;
    for (int64_t n = 0; n < 4; ++n)
      for (int64_t j = 0; j < plane; ++j) {
        const float v = y[(n * 3 + c) * plane + j];
        sum += v;
        sq += static_cast<double>(v) * v;
      }
    const double mean = sum / (4 * plane);
    const double var = sq / (4 * plane) - mean * mean;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(BatchNorm2d, GammaBetaApplied) {
  nn::BatchNorm2d bn(1);
  bn.parameters()[0]->value.fill(2.0f);  // gamma
  bn.parameters()[1]->value.fill(5.0f);  // beta
  Rng rng(2);
  Tensor x({8, 1, 3, 3});
  rng.fill_normal(x, 0.0f, 1.0f);
  const Tensor y = bn.forward(x);
  double sum = 0.0;
  for (float v : y.span()) sum += v;
  EXPECT_NEAR(sum / static_cast<double>(y.numel()), 5.0, 1e-3);
}

TEST(BatchNorm2d, EvalUsesRunningStats) {
  nn::BatchNorm2d bn(2, /*momentum=*/1.0f);  // running <- batch exactly
  Rng rng(3);
  Tensor x({16, 2, 4, 4});
  rng.fill_normal(x, 3.0f, 2.0f);
  bn.forward(x);  // training pass records stats

  bn.set_training(false);
  const Tensor y = bn.forward(x);
  // Eval normalisation with (almost) the same stats: mean ~0, var ~1
  // (up to the biased/unbiased variance correction).
  double sum = 0.0;
  for (float v : y.span()) sum += v;
  EXPECT_NEAR(sum / static_cast<double>(y.numel()), 0.0, 1e-2);
  // Per element, the affine map of the layer's own running statistics,
  // evaluated as gamma * (x - mean) * (1 / sqrt(var + eps)) + beta.
  const int64_t plane = 16;
  for (int64_t i = 0; i < x.numel(); ++i) {
    const int64_t c = (i / plane) % 2;
    const float inv_std = 1.0f / std::sqrt(bn.running_var()[c] + bn.eps());
    const float want =
        bn.gamma().value[c] * (x[i] - bn.running_mean()[c]) * inv_std +
        bn.beta().value[c];
    EXPECT_EQ(y[i], want) << "element " << i;
  }
}

TEST(BatchNorm2d, EvalIsDeterministicPerSample) {
  // In eval mode each sample's output is independent of its batch.
  nn::BatchNorm2d bn(2);
  Rng rng(4);
  Tensor warm({8, 2, 3, 3});
  rng.fill_normal(warm, 1.0f, 2.0f);
  bn.forward(warm);
  bn.set_training(false);

  Tensor one({1, 2, 3, 3});
  rng.fill_normal(one, 0.0f, 1.0f);
  const Tensor alone = bn.forward(one);

  Tensor batch({2, 2, 3, 3});
  for (int64_t i = 0; i < one.numel(); ++i) {
    batch[i] = one[i];
    batch[one.numel() + i] = 7.0f;  // arbitrary companion sample
  }
  const Tensor together = bn.forward(batch);
  for (int64_t i = 0; i < one.numel(); ++i)
    EXPECT_FLOAT_EQ(alone[i], together[i]);
}

TEST(BatchNorm2d, RunningStatsConverge) {
  nn::BatchNorm2d bn(1, /*momentum=*/0.5f);
  Rng rng(5);
  for (int step = 0; step < 50; ++step) {
    Tensor x({32, 1, 2, 2});
    rng.fill_normal(x, 4.0f, 1.0f);
    bn.forward(x);
  }
  EXPECT_NEAR(bn.running_mean()[0], 4.0f, 0.2f);
  EXPECT_NEAR(bn.running_var()[0], 1.0f, 0.2f);
}

TEST(BatchNorm2d, GradientsMatchFiniteDifferences) {
  nn::BatchNorm2d bn(2);
  Rng rng(6);
  Tensor x({3, 2, 3, 3});
  rng.fill_normal(x, 0.5f, 1.5f);
  // BN's gradient couples all elements through the batch statistics, so the
  // finite-difference comparison needs slightly looser tolerances.
  testing::GradCheckOptions opt;
  opt.eps = 1e-2f;
  opt.atol = 3e-2f;
  opt.rtol = 8e-2f;
  expect_gradients_match(bn, x, rng, opt);
}

TEST(BatchNorm2d, BackwardRequiresTrainingMode) {
  nn::BatchNorm2d bn(1);
  Tensor x({2, 1, 2, 2}, 1.0f);
  bn.forward(x);
  bn.set_training(false);
  bn.forward(x);
  EXPECT_THROW(bn.backward(Tensor({2, 1, 2, 2})), std::invalid_argument);
}

TEST(BatchNorm2d, ValidatesConfigAndInput) {
  EXPECT_THROW(nn::BatchNorm2d(0), std::invalid_argument);
  EXPECT_THROW(nn::BatchNorm2d(2, -0.1f), std::invalid_argument);
  EXPECT_THROW(nn::BatchNorm2d(2, 0.1f, 0.0f), std::invalid_argument);
  nn::BatchNorm2d bn(2);
  EXPECT_THROW(bn.forward(Tensor({1, 3, 2, 2})), std::invalid_argument);
}

}  // namespace
}  // namespace mtlsplit
