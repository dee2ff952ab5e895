// Tests for the im2col/col2im lowering, including the adjoint property
// that underpins convolution's backward pass.
#include <gtest/gtest.h>

#include "tensor/im2col.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor_ops.hpp"
#include "test_util.hpp"

namespace mtlsplit {
namespace {

using testing::thrown_what;

TEST(ConvGeom, OutputExtents) {
  ConvGeom g{.in_c = 3, .in_h = 8, .in_w = 8, .kernel_h = 3, .kernel_w = 3,
             .stride = 1, .pad = 1};
  EXPECT_EQ(g.out_h(), 8);
  EXPECT_EQ(g.out_w(), 8);
  g.stride = 2;
  EXPECT_EQ(g.out_h(), 4);
  g.pad = 0;
  EXPECT_EQ(g.out_h(), 3);
}

TEST(ConvGeom, ValidationCatchesEmptyOutput) {
  ConvGeom g{.in_c = 1, .in_h = 2, .in_w = 2, .kernel_h = 5, .kernel_w = 5,
             .stride = 1, .pad = 0};
  EXPECT_EQ(thrown_what<std::invalid_argument>([&] { g.validate(); }),
            "ConvGeom: empty output for input 2x2 kernel 5x5 stride 1 pad 0");
  g.pad = 2;
  EXPECT_NO_THROW(g.validate());
}

TEST(ConvGeom, PointwiseIsUnpadded1x1AtStride1) {
  ConvGeom g{.in_c = 4, .in_h = 5, .in_w = 3, .kernel_h = 1, .kernel_w = 1,
             .stride = 1, .pad = 0};
  EXPECT_TRUE(g.pointwise());
  g.stride = 2;
  EXPECT_FALSE(g.pointwise());
  g.stride = 1;
  g.pad = 1;
  EXPECT_FALSE(g.pointwise());
  g.pad = 0;
  g.kernel_w = 3;
  EXPECT_FALSE(g.pointwise());
}

TEST(Im2col, IdentityKernelGeometry) {
  // 1x1 kernel, stride 1: cols is just the image rows.
  const ConvGeom g{.in_c = 2, .in_h = 3, .in_w = 3, .kernel_h = 1,
                   .kernel_w = 1, .stride = 1, .pad = 0};
  Tensor img({2, 3, 3});
  for (int64_t i = 0; i < img.numel(); ++i) img[i] = static_cast<float>(i);
  Tensor cols;
  im2col(img.data(), g, cols);
  ASSERT_EQ(cols.shape(), (Shape{2, 9}));
  for (int64_t i = 0; i < 18; ++i) EXPECT_EQ(cols[i], static_cast<float>(i));
}

TEST(Im2col, PaddingProducesZeros) {
  const ConvGeom g{.in_c = 1, .in_h = 2, .in_w = 2, .kernel_h = 3,
                   .kernel_w = 3, .stride = 1, .pad = 1};
  Tensor img({1, 2, 2}, 1.0f);
  Tensor cols;
  im2col(img.data(), g, cols);
  ASSERT_EQ(cols.shape(), (Shape{9, 4}));
  // Top-left kernel tap at output (0,0) reads img(-1,-1) -> 0.
  EXPECT_EQ(cols.at(0, 0), 0.0f);
  // Centre tap always reads a real pixel.
  EXPECT_EQ(cols.at(4, 0), 1.0f);
}

TEST(Im2col, KnownPatchContents) {
  const ConvGeom g{.in_c = 1, .in_h = 3, .in_w = 3, .kernel_h = 2,
                   .kernel_w = 2, .stride = 1, .pad = 0};
  Tensor img({1, 3, 3});
  for (int64_t i = 0; i < 9; ++i) img[i] = static_cast<float>(i);
  Tensor cols;
  im2col(img.data(), g, cols);
  ASSERT_EQ(cols.shape(), (Shape{4, 4}));
  // Patch at output (0,0) is pixels {0,1,3,4} spread across the 4 rows.
  EXPECT_EQ(cols.at(0, 0), 0.0f);
  EXPECT_EQ(cols.at(1, 0), 1.0f);
  EXPECT_EQ(cols.at(2, 0), 3.0f);
  EXPECT_EQ(cols.at(3, 0), 4.0f);
  // Patch at output (1,1) is pixels {4,5,7,8}.
  EXPECT_EQ(cols.at(0, 3), 4.0f);
  EXPECT_EQ(cols.at(3, 3), 8.0f);
}

// Property: <im2col(x), y> == <x, col2im(y)> for random x, y — col2im is
// the exact adjoint of im2col. Parameterised over geometry.
struct GeomParam {
  int64_t c, h, w, k, stride, pad;
};

class Im2colAdjoint : public ::testing::TestWithParam<GeomParam> {};

TEST_P(Im2colAdjoint, InnerProductIdentity) {
  const GeomParam p = GetParam();
  const ConvGeom g{.in_c = p.c, .in_h = p.h, .in_w = p.w, .kernel_h = p.k,
                   .kernel_w = p.k, .stride = p.stride, .pad = p.pad};
  Rng rng(static_cast<uint64_t>(p.c * 1000 + p.h * 100 + p.k));
  Tensor x({p.c, p.h, p.w});
  rng.fill_uniform(x, -1.0f, 1.0f);

  Tensor cols;
  im2col(x.data(), g, cols);
  Tensor y(cols.shape());
  rng.fill_uniform(y, -1.0f, 1.0f);

  Tensor xadj({p.c, p.h, p.w});
  col2im(y, g, xadj.data());

  const float lhs = ops::sum(ops::mul(cols, y));
  const float rhs = ops::sum(ops::mul(x, xadj));
  EXPECT_NEAR(lhs, rhs, 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Im2colAdjoint,
    ::testing::Values(GeomParam{1, 5, 5, 3, 1, 1}, GeomParam{3, 8, 8, 3, 2, 1},
                      GeomParam{2, 7, 5, 5, 2, 2}, GeomParam{4, 6, 6, 1, 1, 0},
                      GeomParam{1, 9, 9, 3, 3, 0},
                      GeomParam{2, 10, 10, 5, 1, 2}));

/// The per-element definitions im2col and col2im must reproduce bit for
/// bit: every patch-matrix entry tests its own bounds.
void im2col_per_element(const float* img, const ConvGeom& g, float* cols) {
  const int64_t oh = g.out_h(), ow = g.out_w();
  for (int64_t c = 0; c < g.in_c; ++c) {
    const float* plane = img + c * g.in_h * g.in_w;
    for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (int64_t kw = 0; kw < g.kernel_w; ++kw) {
        float* crow =
            cols + ((c * g.kernel_h + kh) * g.kernel_w + kw) * oh * ow;
        for (int64_t y = 0; y < oh; ++y) {
          const int64_t iy = y * g.stride + kh - g.pad;
          const bool y_ok = iy >= 0 && iy < g.in_h;
          for (int64_t x = 0; x < ow; ++x) {
            const int64_t ix = x * g.stride + kw - g.pad;
            crow[y * ow + x] = (y_ok && ix >= 0 && ix < g.in_w)
                                   ? plane[iy * g.in_w + ix]
                                   : 0.0f;
          }
        }
      }
    }
  }
}

void col2im_per_element(const float* cols, const ConvGeom& g, float* img) {
  const int64_t oh = g.out_h(), ow = g.out_w();
  for (int64_t c = 0; c < g.in_c; ++c) {
    float* plane = img + c * g.in_h * g.in_w;
    for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (int64_t kw = 0; kw < g.kernel_w; ++kw) {
        const float* crow =
            cols + ((c * g.kernel_h + kh) * g.kernel_w + kw) * oh * ow;
        for (int64_t y = 0; y < oh; ++y) {
          const int64_t iy = y * g.stride + kh - g.pad;
          if (iy < 0 || iy >= g.in_h) continue;
          for (int64_t x = 0; x < ow; ++x) {
            const int64_t ix = x * g.stride + kw - g.pad;
            if (ix < 0 || ix >= g.in_w) continue;
            plane[iy * g.in_w + ix] += crow[y * ow + x];
          }
        }
      }
    }
  }
}

// Kernels 1-5, strides 1-3, pads 0 to k - 1 on planes from 1x1 to 9x7,
// square and not. Large pads on small planes give patch rows and columns
// that lie wholly in the padding; col2im adds into a non-zero image, so
// the order of the adds into each element shows in its bits.
TEST(Im2col, EqualsPerElementDefinition) {
  // True when some tap t reads only padding along an axis: no output o
  // in [0, n) has o * stride + t - pad inside [0, len).
  const auto tap_all_padding = [](int64_t n, int64_t len, int64_t k,
                                  int64_t stride, int64_t pad) {
    for (int64_t t = 0; t < k; ++t) {
      bool any = false;
      for (int64_t o = 0; o < n; ++o) {
        const int64_t i = o * stride + t - pad;
        any = any || (i >= 0 && i < len);
      }
      if (!any) return true;
    }
    return false;
  };
  Rng rng(41);
  int64_t checked = 0, all_padding = 0;
  for (int64_t h : {1, 2, 3, 4, 5, 8, 9})
    for (int64_t w : {1, 2, 4, 5, 7, 8})
      for (int64_t k = 1; k <= 5; ++k)
        for (int64_t stride = 1; stride <= 3; ++stride)
          for (int64_t pad = 0; pad < k; ++pad) {
            const ConvGeom g{.in_c = 2, .in_h = h, .in_w = w, .kernel_h = k,
                             .kernel_w = k, .stride = stride, .pad = pad};
            if (g.out_h() <= 0 || g.out_w() <= 0) continue;
            SCOPED_TRACE(::testing::Message()
                         << h << "x" << w << " k" << k << " s" << stride
                         << " p" << pad);
            Tensor img({g.in_c, h, w});
            rng.fill_uniform(img, -1.0f, 1.0f);
            const Shape cshape{g.in_c * k * k, g.out_h() * g.out_w()};
            Tensor want(cshape, 7.0f), got(cshape, 9.0f);
            im2col_per_element(img.data(), g, want.data());
            im2col(img.data(), g, got.data());
            ASSERT_TRUE(got.equals(want));

            Tensor dcols(cshape);
            rng.fill_uniform(dcols, -1.0f, 1.0f);
            Tensor acc_want({g.in_c, h, w});
            rng.fill_uniform(acc_want, -1.0f, 1.0f);
            Tensor acc_got = acc_want;
            col2im_per_element(dcols.data(), g, acc_want.data());
            col2im(dcols.data(), g, acc_got.data());
            ASSERT_TRUE(acc_got.equals(acc_want));
            ++checked;
            if (tap_all_padding(g.out_h(), h, k, stride, pad) ||
                tap_all_padding(g.out_w(), w, k, stride, pad))
              ++all_padding;
          }
  EXPECT_GT(checked, 1000);
  EXPECT_GT(all_padding, 100);
}

TEST(Col2im, ShapeMismatchThrows) {
  const ConvGeom g{.in_c = 1, .in_h = 4, .in_w = 4, .kernel_h = 3,
                   .kernel_w = 3, .stride = 1, .pad = 1};
  Tensor img({1, 4, 4});
  Tensor wrong({3, 3});
  EXPECT_THROW(col2im(wrong, g, img.data()), std::invalid_argument);
}

}  // namespace
}  // namespace mtlsplit
