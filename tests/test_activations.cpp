// Activation layers: reference values, derivative checks (analytic vs
// finite differences), shape preservation. Parameterised across all five
// activation kinds. Also pins the four-lane sweep to the scalar act(),
// exp_poly to libm's expf, and the fused activation epilogue of every
// kernel that takes one to a separate activation sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "test_util.hpp"

namespace mtlsplit {
namespace {

using testing::expect_gradients_match;
using testing::smooth_random;

TEST(ReLU, ReferenceValues) {
  nn::ReLU relu;
  const Tensor x = Tensor::from_values({-2.0f, -0.1f, 0.0f, 0.1f, 3.0f});
  const Tensor y = relu.forward(x);
  EXPECT_TRUE(y.equals(Tensor::from_values({0, 0, 0, 0.1f, 3.0f})));
}

TEST(Sigmoid, ReferenceValues) {
  nn::Sigmoid s;
  const Tensor y = s.forward(Tensor::from_values({0.0f}));
  EXPECT_NEAR(y[0], 0.5f, 1e-6f);
  const Tensor y2 = s.forward(Tensor::from_values({100.0f, -100.0f}));
  EXPECT_NEAR(y2[0], 1.0f, 1e-6f);
  EXPECT_NEAR(y2[1], 0.0f, 1e-6f);
}

TEST(HardSigmoid, PiecewiseDefinition) {
  nn::HardSigmoid hs;
  const Tensor y =
      hs.forward(Tensor::from_values({-4.0f, -3.0f, 0.0f, 3.0f, 4.0f}));
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 0.5f);
  EXPECT_FLOAT_EQ(y[3], 1.0f);
  EXPECT_FLOAT_EQ(y[4], 1.0f);
}

TEST(HardSwish, MatchesXTimesHardSigmoid) {
  nn::HardSwish hsw;
  nn::HardSigmoid hsg;
  Rng rng(1);
  Tensor x({100});
  rng.fill_uniform(x, -5.0f, 5.0f);
  const Tensor y = hsw.forward(x);
  const Tensor g = hsg.forward(x);
  for (int64_t i = 0; i < x.numel(); ++i)
    EXPECT_NEAR(y[i], x[i] * g[i], 1e-5f);
}

TEST(SiLU, MatchesXTimesSigmoid) {
  nn::SiLU silu;
  Rng rng(2);
  Tensor x({100});
  rng.fill_uniform(x, -5.0f, 5.0f);
  const Tensor y = silu.forward(x);
  for (int64_t i = 0; i < x.numel(); ++i)
    EXPECT_NEAR(y[i], x[i] / (1.0f + std::exp(-x[i])), 1e-5f);
}

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr nn::ActFn kAllFns[] = {
    nn::ActFn::kNone,        nn::ActFn::kReLU,      nn::ActFn::kSigmoid,
    nn::ActFn::kHardSigmoid, nn::ActFn::kHardSwish, nn::ActFn::kSiLU};

/// Position of @p f on the number line in float steps, so that the ULP
/// distance of two finite floats is the difference of their positions.
int64_t ulp_pos(float f) {
  const auto i = std::bit_cast<int32_t>(f);
  return i < 0 ? int64_t{std::numeric_limits<int32_t>::min()} - i : i;
}

float at_ulp_pos(int64_t pos) {
  return std::bit_cast<float>(static_cast<int32_t>(
      pos < 0 ? int64_t{std::numeric_limits<int32_t>::min()} - pos : pos));
}

// Every lane of the sweep, vector or tail, aligned or not, in place or
// not, must hold exactly the bytes act() gives for its element, and the
// sweep must write nothing outside its row.
TEST(ActSweep, EqualsScalarActForEveryFunction) {
  std::vector<float> src = {
      0.0f, -0.0f, 3.0f, -3.0f, std::numeric_limits<float>::denorm_min(),
      -1e-40f, 87.5f, -87.5f, 88.8f, -88.8f, 104.0f, -104.0f, kInf, -kInf,
      kNan, -kNan, std::nextafter(3.0f, 0.0f), std::nextafter(-3.0f, 0.0f)};
  Rng rng(5);
  Tensor noise({8});
  rng.fill_uniform(noise, -6.0f, 6.0f);
  src.insert(src.end(), noise.data(), noise.data() + noise.numel());
  constexpr int64_t kMaxLen = 19, kPad = 4;
  const auto n_src = static_cast<int64_t>(src.size());
  std::vector<float> x(kMaxLen + 2 * kPad), y(x.size()), want(x.size());
  for (nn::ActFn fn : kAllFns) {
    for (int64_t off = 0; off < 4; ++off) {
      for (int64_t len = 0; len <= kMaxLen; ++len) {
        for (int64_t rot = 0; rot < n_src; ++rot) {
          std::fill(y.begin(), y.end(), -7.0f);
          want = y;
          for (int64_t i = 0; i < len; ++i) {
            const float v = src[static_cast<size_t>((i + rot) % n_src)];
            x[static_cast<size_t>(off + i)] = v;
            want[static_cast<size_t>(off + i)] = nn::act(fn, v);
          }
          const size_t bytes = y.size() * sizeof(float);
          nn::act_sweep(fn, x.data() + off, len, y.data() + off);
          ASSERT_EQ(std::memcmp(y.data(), want.data(), bytes), 0)
              << nn::act_fn_name(fn) << " off " << off << " len " << len
              << " rot " << rot;
          // In place: the row is both input and output.
          std::copy(x.begin() + off, x.begin() + off + len, y.begin() + off);
          nn::act_sweep(fn, y.data() + off, len, y.data() + off);
          ASSERT_EQ(std::memcmp(y.data(), want.data(), bytes), 0)
              << nn::act_fn_name(fn) << " in place, off " << off << " len "
              << len << " rot " << rot;
        }
      }
    }
  }
}

// DESIGN.md §6 bounds exp_poly at 1 ULP from libm's expf on
// [ln FLT_MIN, ln FLT_MAX]; an exhaustive run over every float of the
// range measured 1. Every 613th float keeps the sweep to ~3.7M calls.
TEST(ExpPoly, WithinOneUlpOfLibmOnItsRange) {
  int64_t worst = 0;
  float worst_x = 0.0f;
  for (int64_t pos = ulp_pos(-87.33f); pos <= ulp_pos(88.72f); pos += 613) {
    const float x = at_ulp_pos(pos);
    const int64_t d =
        std::abs(ulp_pos(nn::exp_poly(x)) - ulp_pos(std::exp(x)));
    if (d > worst) {
      worst = d;
      worst_x = x;
    }
  }
  EXPECT_LE(worst, 1) << "at x = " << worst_x;
  EXPECT_EQ(nn::exp_poly(0.0f), 1.0f);
  EXPECT_EQ(nn::exp_poly(-0.0f), 1.0f);
}

TEST(ExpPoly, SaturatesLikeLibm) {
  // ln(FLT_MAX) = 88.72283905...: the next float up overflows, the one
  // below it does not.
  const float ln_max = 88.72283905f;
  EXPECT_EQ(std::exp(std::nextafter(ln_max, kInf)), kInf);
  for (float x : {std::nextafter(ln_max, kInf), 88.8f, 89.0f, 104.0f, 1e30f,
                  kInf})
    EXPECT_EQ(nn::exp_poly(x), kInf) << x;
  const float below = std::nextafter(ln_max, 0.0f);
  EXPECT_TRUE(std::isfinite(nn::exp_poly(below)));
  EXPECT_LE(std::abs(ulp_pos(nn::exp_poly(below)) - ulp_pos(std::exp(below))),
            1);
  // Below ln(FLT_MIN) the result rounds once into the denormals and
  // reaches +0 where expf does.
  for (float x : {-104.0f, -110.0f, -1e30f, -kInf})
    EXPECT_EQ(std::bit_cast<uint32_t>(nn::exp_poly(x)), 0u) << x;
  EXPECT_GT(nn::exp_poly(-103.0f), 0.0f);
  EXPECT_TRUE(std::isnan(nn::exp_poly(kNan)));
  EXPECT_TRUE(std::isnan(nn::exp_poly(-kNan)));
}

// Pins Sigmoid and SiLU at the non-finite inputs. exp_poly saturates to
// +inf and +0 exactly as expf does, so each value is what the libm
// formula gives, including SiLU(-inf) = -inf / (1 + inf) = NaN.
TEST(SigmoidSiLU, NonFiniteInputs) {
  const auto libm_sigmoid = [](float x) {
    return 1.0f / (1.0f + std::exp(-x));
  };
  const auto libm_silu = [](float x) { return x / (1.0f + std::exp(-x)); };
  const auto same = [](float a, float b) {
    return a == b || (std::isnan(a) && std::isnan(b));
  };
  EXPECT_EQ(nn::act(nn::ActFn::kSigmoid, kInf), 1.0f);
  EXPECT_EQ(nn::act(nn::ActFn::kSigmoid, -kInf), 0.0f);
  EXPECT_TRUE(std::isnan(nn::act(nn::ActFn::kSigmoid, kNan)));
  EXPECT_EQ(nn::act(nn::ActFn::kSiLU, kInf), kInf);
  EXPECT_TRUE(std::isnan(nn::act(nn::ActFn::kSiLU, -kInf)));
  EXPECT_TRUE(std::isnan(nn::act(nn::ActFn::kSiLU, kNan)));
  for (float x : {kInf, -kInf, kNan}) {
    EXPECT_TRUE(same(nn::act(nn::ActFn::kSigmoid, x), libm_sigmoid(x))) << x;
    EXPECT_TRUE(same(nn::act(nn::ActFn::kSiLU, x), libm_silu(x))) << x;
  }
}

// Parameterised gradient check across every activation kind.
using ActFactory = std::function<std::unique_ptr<nn::Module>()>;

class ActivationGrad
    : public ::testing::TestWithParam<std::pair<const char*, ActFactory>> {};

TEST_P(ActivationGrad, MatchesFiniteDifferences) {
  auto [name, factory] = GetParam();
  auto act = factory();
  Rng rng(42);
  Tensor x = smooth_random({3, 7}, rng);
  expect_gradients_match(*act, x, rng);
}

TEST_P(ActivationGrad, PreservesShape) {
  auto [name, factory] = GetParam();
  auto act = factory();
  const Shape s{2, 3, 4, 5};
  EXPECT_EQ(act->output_shape(s), s);
  Tensor x(s, 0.5f);
  EXPECT_EQ(act->forward(x).shape(), s);
  EXPECT_TRUE(act->parameters().empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ActivationGrad,
    ::testing::Values(
        std::make_pair("ReLU",
                       ActFactory([] { return std::make_unique<nn::ReLU>(); })),
        std::make_pair("Sigmoid", ActFactory([] {
                         return std::make_unique<nn::Sigmoid>();
                       })),
        std::make_pair("HardSigmoid", ActFactory([] {
                         return std::make_unique<nn::HardSigmoid>();
                       })),
        std::make_pair("HardSwish", ActFactory([] {
                         return std::make_unique<nn::HardSwish>();
                       })),
        std::make_pair("SiLU", ActFactory([] {
                         return std::make_unique<nn::SiLU>();
                       }))));

// FuseActivation may move any of the five functions into a conv,
// depthwise, BatchNorm or linear node; for each, kernel(fn) must equal
// kernel(kNone) followed by activation_forward(fn), bit for bit.
TEST(ActivationEpilogue, FusedEqualsSeparateSweepForEveryKernel) {
  Rng rng(77);
  const int64_t n = 2, c = 3, out_c = 4, feat = 64;
  const ConvGeom geom{.in_c = c, .in_h = 6, .in_w = 5, .kernel_h = 3,
                      .kernel_w = 3, .stride = 1, .pad = 1};
  const int64_t ohw = geom.out_h() * geom.out_w();
  const auto random = [&](Shape shape, float lo, float hi) {
    Tensor t(std::move(shape));
    rng.fill_uniform(t, lo, hi);
    return t;
  };
  const Tensor x = random({n, c, 6, 5}, -2.0f, 2.0f);
  const Tensor conv_w = random({out_c, c * 9}, -1.0f, 1.0f);
  const Tensor conv_b = random({out_c}, -1.0f, 1.0f);
  const Tensor dw_w = random({c, 9}, -1.0f, 1.0f);
  const Tensor dw_b = random({c}, -1.0f, 1.0f);
  const Tensor gamma = random({c}, 0.5f, 2.0f);
  const Tensor beta = random({c}, -1.0f, 1.0f);
  const Tensor mean = random({c}, -0.5f, 0.5f);
  const Tensor var = random({c}, 0.1f, 1.0f);
  const Tensor lin_x = random({n, feat}, -2.0f, 2.0f);
  const Tensor lin_w = random({out_c, feat}, -1.0f, 1.0f);
  const Tensor lin_b = random({out_c}, -1.0f, 1.0f);
  std::vector<int32_t> taps;

  struct Kernel {
    const char* name;
    int64_t size;
    std::function<void(nn::ActFn, float*)> run;
  };
  const std::vector<Kernel> kernels = {
      {"conv", n * out_c * ohw,
       [&](nn::ActFn fn, float* y) {
         nn::conv2d_forward(x.data(), n, geom, out_c, conv_w.data(),
                            conv_b.data(), fn, y);
       }},
      {"conv without bias", n * out_c * ohw,
       [&](nn::ActFn fn, float* y) {
         nn::conv2d_forward(x.data(), n, geom, out_c, conv_w.data(), nullptr,
                            fn, y);
       }},
      {"depthwise", n * c * ohw,
       [&](nn::ActFn fn, float* y) {
         nn::depthwise_conv2d_forward(x.data(), n, geom, dw_w.data(),
                                      dw_b.data(), fn, taps, y);
       }},
      {"batchnorm", x.numel(),
       [&](nn::ActFn fn, float* y) {
         nn::batchnorm_eval_forward(x.data(), n, c, 30, gamma.data(),
                                    beta.data(), mean.data(), var.data(),
                                    1e-5f, fn, y);
       }},
      {"linear", n * out_c,
       [&](nn::ActFn fn, float* y) {
         nn::linear_forward(lin_x.data(), n, feat, out_c, lin_w.data(),
                            lin_b.data(), fn, y);
       }},
  };
  for (const Kernel& k : kernels) {
    const auto bytes = static_cast<size_t>(k.size) * sizeof(float);
    std::vector<float> plain(static_cast<size_t>(k.size));
    k.run(nn::ActFn::kNone, plain.data());
    // Pre-activations reach past +-3, so every piece of HardSigmoid and
    // HardSwish is exercised.
    EXPECT_LT(*std::min_element(plain.begin(), plain.end()), -3.0f) << k.name;
    EXPECT_GT(*std::max_element(plain.begin(), plain.end()), 3.0f) << k.name;
    for (nn::ActFn fn : {nn::ActFn::kReLU, nn::ActFn::kSigmoid,
                         nn::ActFn::kHardSigmoid, nn::ActFn::kHardSwish,
                         nn::ActFn::kSiLU}) {
      std::vector<float> fused(plain.size()), separate(plain.size());
      k.run(fn, fused.data());
      nn::activation_forward(fn, plain.data(), k.size, separate.data());
      EXPECT_EQ(std::memcmp(fused.data(), separate.data(), bytes), 0)
          << k.name << " + " << nn::act_fn_name(fn);
    }
  }
}

TEST(Activation, BackwardShapeValidated) {
  nn::ReLU relu;
  relu.forward(Tensor({2, 3}));
  EXPECT_THROW(relu.backward(Tensor({3, 2})), std::invalid_argument);
}

}  // namespace
}  // namespace mtlsplit
