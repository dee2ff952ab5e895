// Convolution layers: naive-reference forward, gradient checks, geometry.
#include <gtest/gtest.h>

#include "nn/conv2d.hpp"
#include "tensor/gemm.hpp"
#include "test_util.hpp"

namespace mtlsplit {
namespace {

using testing::expect_gradients_match;

/// Reference direct convolution for cross-checking the im2col path.
Tensor naive_conv(const Tensor& x, const Tensor& w_mat, const Tensor& bias,
                  int64_t out_c, int64_t k, int64_t stride, int64_t pad) {
  const int64_t n = x.size(0), in_c = x.size(1), h = x.size(2), w = x.size(3);
  const int64_t oh = (h + 2 * pad - k) / stride + 1;
  const int64_t ow = (w + 2 * pad - k) / stride + 1;
  Tensor out({n, out_c, oh, ow});
  for (int64_t i = 0; i < n; ++i)
    for (int64_t oc = 0; oc < out_c; ++oc)
      for (int64_t y = 0; y < oh; ++y)
        for (int64_t xx = 0; xx < ow; ++xx) {
          float acc = bias.numel() > 0 ? bias[oc] : 0.0f;
          for (int64_t ic = 0; ic < in_c; ++ic)
            for (int64_t kh = 0; kh < k; ++kh)
              for (int64_t kw = 0; kw < k; ++kw) {
                const int64_t iy = y * stride + kh - pad;
                const int64_t ix = xx * stride + kw - pad;
                if (iy < 0 || iy >= h || ix < 0 || ix >= w) continue;
                acc += w_mat.at(oc, (ic * k + kh) * k + kw) *
                       x.at(i, ic, iy, ix);
              }
          out.at(i, oc, y, xx) = acc;
        }
  return out;
}

struct ConvParam {
  int64_t in_c, out_c, k, stride, pad, h, w;
  int64_t batch = 2;
};

class ConvForward : public ::testing::TestWithParam<ConvParam> {};

TEST_P(ConvForward, MatchesNaiveReference) {
  const ConvParam p = GetParam();
  Rng rng(static_cast<uint64_t>(p.in_c * 100 + p.k * 10 + p.stride));
  nn::Conv2d conv(p.in_c, p.out_c, p.k, p.stride, p.pad, rng);
  Tensor x({2, p.in_c, p.h, p.w});
  rng.fill_uniform(x, -1.0f, 1.0f);
  const Tensor got = conv.forward(x);
  const Tensor want =
      naive_conv(x, conv.weight().value,
                 conv.parameters().size() > 1
                     ? conv.parameters()[1]->value
                     : Tensor(),
                 p.out_c, p.k, p.stride, p.pad);
  EXPECT_EQ(got.shape(), want.shape());
  EXPECT_TRUE(got.allclose(want, 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvForward,
    ::testing::Values(ConvParam{1, 1, 3, 1, 1, 5, 5},
                      ConvParam{3, 4, 3, 1, 1, 6, 6},
                      ConvParam{2, 3, 5, 2, 2, 9, 9},
                      ConvParam{4, 2, 1, 1, 0, 4, 4},
                      ConvParam{2, 2, 3, 2, 1, 7, 5},
                      // 1x1 convs that are not pointwise keep im2col.
                      ConvParam{3, 4, 1, 2, 0, 7, 6},
                      ConvParam{3, 4, 1, 1, 1, 5, 6},
                      ConvParam{3, 5, 3, 2, 1, 8, 11}));

// A pointwise conv (1x1, stride 1, no padding) hands each sample's input
// to the GEMM in place; that must be the GEMM over an explicit patch
// matrix, bit for bit, one sample or several.
TEST(Conv2dPointwise, EqualsGemmOverExplicitIm2col) {
  const ConvGeom g{.in_c = 12, .in_h = 5, .in_w = 7, .kernel_h = 1,
                   .kernel_w = 1, .stride = 1, .pad = 0};
  ASSERT_TRUE(g.pointwise());
  constexpr int64_t out_c = 20;
  const int64_t ohw = g.out_h() * g.out_w();
  Rng rng(17);
  Tensor w({out_c, g.in_c});
  rng.fill_uniform(w, -1.0f, 1.0f);
  for (int64_t n : {1, 3}) {
    Tensor x({n, g.in_c, g.in_h, g.in_w});
    rng.fill_uniform(x, -1.0f, 1.0f);
    Tensor got({n, out_c, g.out_h(), g.out_w()});
    nn::conv2d_forward(x.data(), n, g, out_c, w.data(), nullptr,
                       nn::ActFn::kNone, got.data());
    Tensor want(got.shape()), cols;
    for (int64_t i = 0; i < n; ++i) {
      im2col(x.data() + i * g.in_c * g.in_h * g.in_w, g, cols);
      ops::detail::gemm(out_c, ohw, g.in_c, w.data(), cols.data(),
                        want.data() + i * out_c * ohw);
    }
    EXPECT_TRUE(got.equals(want)) << "batch " << n;
  }
}

/// Reference depthwise convolution: each output starts from its channel's
/// bias and adds the in-bounds taps in (kh, kw) order.
Tensor naive_depthwise(const Tensor& x, const Tensor& w_mat,
                       const Tensor& bias, int64_t k, int64_t stride,
                       int64_t pad) {
  const int64_t n = x.size(0), c = x.size(1), h = x.size(2), w = x.size(3);
  const int64_t oh = (h + 2 * pad - k) / stride + 1;
  const int64_t ow = (w + 2 * pad - k) / stride + 1;
  Tensor out({n, c, oh, ow});
  for (int64_t i = 0; i < n; ++i)
    for (int64_t ch = 0; ch < c; ++ch)
      for (int64_t y = 0; y < oh; ++y)
        for (int64_t xx = 0; xx < ow; ++xx) {
          float acc = bias.numel() > 0 ? bias[ch] : 0.0f;
          for (int64_t kh = 0; kh < k; ++kh)
            for (int64_t kw = 0; kw < k; ++kw) {
              const int64_t iy = y * stride + kh - pad;
              const int64_t ix = xx * stride + kw - pad;
              if (iy < 0 || iy >= h || ix < 0 || ix >= w) continue;
              acc += w_mat.at(ch, kh * k + kw) * x.at(i, ch, iy, ix);
            }
          out.at(i, ch, y, xx) = acc;
        }
  return out;
}

// in_c is the channel count; out_c is unused (a depthwise conv keeps it).
// Channel counts of 4 and more run blocks of four channels, and the rest
// one channel at a time; both must match the reference bit for bit.
class DepthwiseForward : public ::testing::TestWithParam<ConvParam> {};

TEST_P(DepthwiseForward, MatchesNaiveReference) {
  const ConvParam p = GetParam();
  for (bool with_bias : {false, true}) {
    Rng rng(static_cast<uint64_t>(p.in_c * 100 + p.k * 10 + p.stride));
    nn::DepthwiseConv2d dw(p.in_c, p.k, p.stride, p.pad, rng, with_bias);
    if (with_bias) rng.fill_uniform(dw.bias().value, -1.0f, 1.0f);
    Tensor x({p.batch, p.in_c, p.h, p.w});
    rng.fill_uniform(x, -1.0f, 1.0f);
    const Tensor got = dw.forward(x);
    const Tensor want =
        naive_depthwise(x, dw.weight().value,
                        with_bias ? dw.bias().value : Tensor(), p.k, p.stride,
                        p.pad);
    ASSERT_EQ(got.shape(), want.shape());
    EXPECT_TRUE(got.equals(want)) << (with_bias ? "with" : "without")
                                  << " bias";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, DepthwiseForward,
    ::testing::Values(ConvParam{1, 1, 3, 1, 1, 5, 5},
                      ConvParam{3, 3, 3, 1, 1, 6, 6},
                      ConvParam{2, 2, 5, 2, 2, 9, 9},
                      ConvParam{4, 4, 3, 2, 1, 7, 5},
                      ConvParam{3, 3, 5, 1, 2, 6, 8},
                      // A block of four plus a remainder of 1, 3 and 1.
                      ConvParam{5, 5, 3, 1, 1, 6, 6},
                      ConvParam{7, 7, 3, 2, 1, 7, 7},
                      ConvParam{9, 9, 5, 1, 2, 6, 5},
                      // Planes where every output is a border output.
                      ConvParam{6, 6, 3, 1, 1, 2, 2},
                      ConvParam{5, 5, 3, 1, 1, 1, 1},
                      // EfficientNet's k5 s2 p2 stage on 8x8.
                      ConvParam{8, 8, 5, 2, 2, 8, 8},
                      ConvParam{6, 6, 3, 2, 1, 5, 5, /*batch=*/3}));

TEST(Conv2d, OutputShapeAndFlops) {
  Rng rng(1);
  nn::Conv2d conv(3, 8, 3, 2, 1, rng);
  EXPECT_EQ(conv.output_shape({2, 3, 8, 8}), (Shape{2, 8, 4, 4}));
  // 2 * out_elems * in_c * k * k
  EXPECT_EQ(conv.flops({2, 3, 8, 8}), 2 * (2 * 8 * 4 * 4) * 3 * 9);
  EXPECT_THROW(conv.output_shape({2, 4, 8, 8}), std::invalid_argument);
}

TEST(Conv2d, GradientsMatchFiniteDifferences) {
  Rng rng(2);
  nn::Conv2d conv(2, 3, 3, 1, 1, rng);
  Tensor x({2, 2, 5, 5});
  rng.fill_uniform(x, -1.0f, 1.0f);
  expect_gradients_match(conv, x, rng);
}

TEST(Conv2d, StridedGradients) {
  Rng rng(3);
  nn::Conv2d conv(2, 2, 3, 2, 1, rng, /*with_bias=*/false);
  Tensor x({1, 2, 6, 6});
  rng.fill_uniform(x, -1.0f, 1.0f);
  expect_gradients_match(conv, x, rng);
}

// The backward pass reads a pointwise conv's input in place too.
TEST(Conv2d, PointwiseGradients) {
  Rng rng(6);
  nn::Conv2d conv(3, 4, 1, 1, 0, rng);
  Tensor x({2, 3, 4, 5});
  rng.fill_uniform(x, -1.0f, 1.0f);
  expect_gradients_match(conv, x, rng);
}

TEST(Conv2d, BackwardBeforeForwardThrows) {
  Rng rng(4);
  nn::Conv2d conv(1, 1, 3, 1, 1, rng);
  EXPECT_THROW(conv.backward(Tensor({1, 1, 4, 4})), std::invalid_argument);
}

TEST(DepthwiseConv2d, PreservesChannelCount) {
  Rng rng(5);
  nn::DepthwiseConv2d dw(4, 3, 1, 1, rng);
  EXPECT_EQ(dw.output_shape({2, 4, 6, 6}), (Shape{2, 4, 6, 6}));
  EXPECT_THROW(dw.forward(Tensor({1, 3, 6, 6})), std::invalid_argument);
}

TEST(DepthwiseConv2d, ChannelsAreIndependent) {
  Rng rng(6);
  nn::DepthwiseConv2d dw(2, 3, 1, 1, rng, /*with_bias=*/false);
  Tensor x({1, 2, 5, 5});
  rng.fill_uniform(x, -1.0f, 1.0f);
  const Tensor y0 = dw.forward(x);
  // Perturbing channel 1 must not change channel 0's output.
  Tensor x2 = x;
  for (int64_t i = 0; i < 25; ++i) x2[25 + i] += 1.0f;
  const Tensor y1 = dw.forward(x2);
  for (int64_t i = 0; i < 25; ++i) EXPECT_EQ(y0[i], y1[i]);
}

TEST(DepthwiseConv2d, GradientsMatchFiniteDifferences) {
  Rng rng(7);
  nn::DepthwiseConv2d dw(3, 3, 1, 1, rng);
  Tensor x({2, 3, 5, 5});
  rng.fill_uniform(x, -1.0f, 1.0f);
  expect_gradients_match(dw, x, rng);
}

TEST(DepthwiseConv2d, StridedGradients) {
  Rng rng(8);
  nn::DepthwiseConv2d dw(2, 5, 2, 2, rng);
  Tensor x({1, 2, 7, 7});
  rng.fill_uniform(x, -1.0f, 1.0f);
  expect_gradients_match(dw, x, rng);
}

TEST(DepthwiseConv2d, FlopsFormula) {
  Rng rng(9);
  nn::DepthwiseConv2d dw(4, 3, 1, 1, rng);
  EXPECT_EQ(dw.flops({1, 4, 8, 8}), 2 * (4 * 8 * 8) * 9);
}

}  // namespace
}  // namespace mtlsplit
