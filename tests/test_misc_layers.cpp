// Flatten, Dropout, Identity, Sequential, SqueezeExcite.
#include <gtest/gtest.h>

#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/misc_layers.hpp"
#include "nn/sequential.hpp"
#include "nn/squeeze_excite.hpp"
#include "test_util.hpp"

namespace mtlsplit {
namespace {

using testing::expect_gradients_match;

TEST(Flatten, RoundTripsShape) {
  nn::Flatten fl;
  Tensor x({2, 3, 4, 5});
  for (int64_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(i);
  const Tensor y = fl.forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 60}));
  const Tensor g = fl.backward(y);
  EXPECT_EQ(g.shape(), x.shape());
  EXPECT_TRUE(g.equals(x));
  EXPECT_EQ(fl.output_shape({7, 2, 2, 2}), (Shape{7, 8}));
}

TEST(Dropout, EvalModeIsIdentity) {
  Rng rng(1);
  nn::Dropout drop(0.5f, rng);
  drop.set_training(false);
  Tensor x({100});
  rng.fill_uniform(x, -1.0f, 1.0f);
  EXPECT_TRUE(drop.forward(x).equals(x));
  EXPECT_TRUE(drop.backward(x).equals(x));
}

TEST(Dropout, TrainingDropsAndRescales) {
  Rng rng(2);
  nn::Dropout drop(0.4f, rng);
  Tensor x({20000}, 1.0f);
  const Tensor y = drop.forward(x);
  int64_t zeros = 0;
  double sum = 0.0;
  for (float v : y.span()) {
    if (v == 0.0f)
      ++zeros;
    else
      EXPECT_NEAR(v, 1.0f / 0.6f, 1e-5f);
    sum += v;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 20000.0, 0.4, 0.02);
  // Inverted dropout keeps the expectation.
  EXPECT_NEAR(sum / 20000.0, 1.0, 0.03);
}

TEST(Dropout, BackwardUsesSameMask) {
  Rng rng(3);
  nn::Dropout drop(0.5f, rng);
  Tensor x({50}, 1.0f);
  const Tensor y = drop.forward(x);
  const Tensor g = drop.backward(Tensor({50}, 1.0f));
  EXPECT_TRUE(g.equals(y));  // same mask and scale on ones
}

TEST(Dropout, RejectsBadProbability) {
  Rng rng(4);
  EXPECT_THROW(nn::Dropout(-0.1f, rng), std::invalid_argument);
  EXPECT_THROW(nn::Dropout(1.0f, rng), std::invalid_argument);
}

TEST(Identity, PassesThrough) {
  nn::Identity id;
  Tensor x({3}, 2.0f);
  EXPECT_TRUE(id.forward(x).equals(x));
  EXPECT_TRUE(id.backward(x).equals(x));
}

TEST(Sequential, ChainsAndBacksInReverse) {
  Rng rng(5);
  nn::Sequential seq;
  // Sigmoid (not ReLU) keeps the composite smooth so central differences
  // cannot straddle an activation kink.
  seq.emplace<nn::Linear>(4, 8, rng);
  seq.emplace<nn::Sigmoid>();
  seq.emplace<nn::Linear>(8, 2, rng);
  EXPECT_EQ(seq.size(), 3u);
  EXPECT_EQ(seq.output_shape({5, 4}), (Shape{5, 2}));
  EXPECT_EQ(seq.parameters().size(), 4u);  // 2 weights + 2 biases

  Tensor x({5, 4});
  rng.fill_uniform(x, -1.0f, 1.0f);
  expect_gradients_match(seq, x, rng);
}

TEST(Sequential, PrefixSuffixComposition) {
  Rng rng(6);
  nn::Sequential seq;
  seq.emplace<nn::Linear>(3, 5, rng);
  seq.emplace<nn::ReLU>();
  seq.emplace<nn::Linear>(5, 2, rng);
  Tensor x({2, 3});
  rng.fill_uniform(x, -1.0f, 1.0f);
  const Tensor whole = seq.forward(x);
  for (size_t k = 0; k <= seq.size(); ++k) {
    const Tensor mid = seq.forward_prefix(x, k);
    EXPECT_EQ(mid.shape(), seq.output_shape_prefix({2, 3}, k));
    const Tensor rejoined = seq.forward_suffix(mid, k);
    EXPECT_TRUE(rejoined.equals(whole)) << "split at " << k;
  }
  EXPECT_THROW(seq.forward_prefix(x, 4), std::out_of_range);
}

TEST(Sequential, FlopsPrefixIsMonotone) {
  Rng rng(7);
  nn::Sequential seq;
  seq.emplace<nn::Linear>(10, 10, rng);
  seq.emplace<nn::ReLU>();
  seq.emplace<nn::Linear>(10, 10, rng);
  const Shape in{1, 10};
  int64_t prev = 0;
  for (size_t k = 0; k <= seq.size(); ++k) {
    const int64_t f = seq.flops_prefix(in, k);
    EXPECT_GE(f, prev);
    prev = f;
  }
  EXPECT_EQ(seq.flops(in), prev);
}

TEST(Sequential, RejectsNullModule) {
  nn::Sequential seq;
  EXPECT_THROW(seq.add(nullptr), std::invalid_argument);
  EXPECT_THROW(seq.layer(0), std::out_of_range);
}

TEST(SqueezeExcite, PreservesShapeAndScales) {
  Rng rng(8);
  nn::SqueezeExcite se(4, 2, rng);
  Tensor x({2, 4, 3, 3});
  rng.fill_uniform(x, 0.1f, 1.0f);
  const Tensor y = se.forward(x);
  EXPECT_EQ(y.shape(), x.shape());
  // Gate is in (0,1]: output magnitude never exceeds input magnitude.
  for (int64_t i = 0; i < x.numel(); ++i)
    EXPECT_LE(std::abs(y[i]), std::abs(x[i]) + 1e-6f);
  // Per element, y = x * gate[n, c], with the gate rebuilt from the block's
  // own FC layers and fresh (stateless) pool, ReLU and HardSigmoid layers.
  nn::GlobalAvgPool pool;
  nn::ReLU relu;
  nn::HardSigmoid hsig;
  const Tensor gate = hsig.forward(se.fc2().forward(
      relu.forward(se.fc1().forward(pool.forward(x)))));  // [2, 4]
  for (int64_t i = 0; i < x.numel(); ++i)
    EXPECT_EQ(y[i], x[i] * gate[i / 9]) << "element " << i;
}

TEST(SqueezeExcite, GradientsMatchFiniteDifferences) {
  Rng rng(9);
  nn::SqueezeExcite se(3, 2, rng);
  Tensor x({2, 3, 3, 3});
  rng.fill_uniform(x, -1.0f, 1.0f);
  // The gate path makes gradients small; loosen absolute tolerance a bit.
  testing::GradCheckOptions opt;
  opt.atol = 3e-2f;
  expect_gradients_match(se, x, rng, opt);
}

TEST(SqueezeExcite, ParameterCount) {
  Rng rng(10);
  nn::SqueezeExcite se(8, 4, rng);
  // fc1: 8->2 (16+2), fc2: 2->8 (16+8).
  int64_t params = 0;
  for (auto* p : se.parameters()) params += p->value.numel();
  EXPECT_EQ(params, 16 + 2 + 16 + 8);
}

}  // namespace
}  // namespace mtlsplit
