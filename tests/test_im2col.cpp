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

TEST(Col2im, ShapeMismatchThrows) {
  const ConvGeom g{.in_c = 1, .in_h = 4, .in_w = 4, .kernel_h = 3,
                   .kernel_w = 3, .stride = 1, .pad = 1};
  Tensor img({1, 4, 4});
  Tensor wrong({3, 3});
  EXPECT_THROW(col2im(wrong, g, img.data()), std::invalid_argument);
}

}  // namespace
}  // namespace mtlsplit
