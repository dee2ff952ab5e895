// Unit + property tests for the tensor op kernels.
#include <gtest/gtest.h>

#include <cmath>

#include "tensor/rng.hpp"
#include "tensor/tensor_ops.hpp"
#include "test_util.hpp"

namespace mtlsplit {
namespace {

using testing::thrown_what;

TEST(Elementwise, BasicArithmetic) {
  const Tensor a = Tensor::from_values({1, 2, 3});
  const Tensor b = Tensor::from_values({4, 5, 6});
  EXPECT_TRUE(ops::add(a, b).equals(Tensor::from_values({5, 7, 9})));
  EXPECT_TRUE(ops::sub(b, a).equals(Tensor::from_values({3, 3, 3})));
  EXPECT_TRUE(ops::mul(a, b).equals(Tensor::from_values({4, 10, 18})));
  EXPECT_TRUE(ops::div(b, a).allclose(Tensor::from_values({4, 2.5f, 2})));
}

TEST(Elementwise, ShapeMismatchThrows) {
  const Tensor a({2, 3});
  const Tensor b({3, 2});
  EXPECT_THROW(ops::add(a, b), std::invalid_argument);
  Tensor c({2, 3});
  EXPECT_THROW(ops::add_(c, b), std::invalid_argument);
  EXPECT_THROW(ops::axpy_(c, 1.0f, b), std::invalid_argument);
}

TEST(Elementwise, ScalarOpsAndInPlace) {
  Tensor a = Tensor::from_values({1, -2, 3});
  EXPECT_TRUE(ops::add_scalar(a, 1.0f).equals(Tensor::from_values({2, -1, 4})));
  EXPECT_TRUE(ops::mul_scalar(a, -2.0f).equals(Tensor::from_values({-2, 4, -6})));
  ops::scale_(a, 10.0f);
  EXPECT_TRUE(a.equals(Tensor::from_values({10, -20, 30})));
  Tensor y = Tensor::from_values({1, 1, 1});
  ops::axpy_(y, 0.5f, a);
  EXPECT_TRUE(y.allclose(Tensor::from_values({6, -9, 16})));
}

TEST(Elementwise, UnaryFunctions) {
  const Tensor a = Tensor::from_values({1.0f, 4.0f});
  EXPECT_TRUE(ops::sqrt(a).allclose(Tensor::from_values({1.0f, 2.0f})));
  EXPECT_TRUE(ops::neg(a).equals(Tensor::from_values({-1.0f, -4.0f})));
  EXPECT_TRUE(ops::abs(ops::neg(a)).equals(a));
  EXPECT_TRUE(
      ops::log(ops::exp(a)).allclose(a, 1e-5f));
  EXPECT_TRUE(ops::clamp(Tensor::from_values({-5, 0.5f, 5}), 0, 1)
                  .equals(Tensor::from_values({0, 0.5f, 1})));
  EXPECT_THROW(ops::clamp(a, 2.0f, 1.0f), std::invalid_argument);
}

TEST(Reductions, SumMeanMinMax) {
  const Tensor a = Tensor::from_values({1, -2, 3, 4});
  EXPECT_FLOAT_EQ(ops::sum(a), 6.0f);
  EXPECT_FLOAT_EQ(ops::mean(a), 1.5f);
  EXPECT_FLOAT_EQ(ops::max(a), 4.0f);
  EXPECT_FLOAT_EQ(ops::min(a), -2.0f);
  EXPECT_FLOAT_EQ(ops::sq_norm(a), 1 + 4 + 9 + 16);
  EXPECT_THROW(ops::mean(Tensor({0})), std::invalid_argument);
  EXPECT_THROW(ops::max(Tensor({0})), std::invalid_argument);
}

TEST(Reductions, ArgmaxRows) {
  const Tensor a({2, 3}, std::vector<float>{0.1f, 0.9f, 0.2f,  //
                                            5.0f, 1.0f, 4.0f});
  const auto idx = ops::argmax_rows(a);
  ASSERT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
  EXPECT_THROW(ops::argmax_rows(Tensor({3})), std::invalid_argument);
}

TEST(Reductions, SumRows) {
  const Tensor a({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  EXPECT_TRUE(ops::sum_rows(a).equals(Tensor::from_values({5, 7, 9})));
}

TEST(MatMul, KnownProduct) {
  const Tensor a({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  const Tensor b({3, 2}, std::vector<float>{7, 8, 9, 10, 11, 12});
  const Tensor c = ops::matmul(a, b);
  EXPECT_TRUE(c.equals(Tensor({2, 2}, std::vector<float>{58, 64, 139, 154})));
}

TEST(MatMul, InnerDimMismatchThrows) {
  EXPECT_THROW(ops::matmul(Tensor({2, 3}), Tensor({2, 3})),
               std::invalid_argument);
  EXPECT_THROW(ops::matmul_tn(Tensor({2, 3}), Tensor({3, 2})),
               std::invalid_argument);
  EXPECT_THROW(ops::matmul_nt(Tensor({2, 3}), Tensor({2, 2})),
               std::invalid_argument);
}

TEST(BatchOps, SliceBatchRejectsBadRange) {
  const Tensor t({2, 3});
  EXPECT_EQ(ops::slice_batch(t, 1, 2).shape(), (Shape{1, 3}));
  EXPECT_EQ(thrown_what<std::invalid_argument>(
                [&] { ops::slice_batch(t, 1, 3); }),
            "slice_batch: bad range [1, 3) for [2, 3]");
}

TEST(MatMul, Transpose2d) {
  const Tensor a({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  const Tensor t = ops::transpose2d(a);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_EQ(t.at(2, 1), 6.0f);
  EXPECT_EQ(t.at(0, 1), 4.0f);
}

// Property: matmul_tn(A, B) == matmul(A^T, B) and
// matmul_nt(A, B) == matmul(A, B^T), across random shapes.
class GemmVariants : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmVariants, AgreeWithExplicitTranspose) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 100 + k * 10 + static_cast<uint64_t>(n));
  Tensor a({m, k});
  Tensor b({k, n});
  rng.fill_uniform(a, -1.0f, 1.0f);
  rng.fill_uniform(b, -1.0f, 1.0f);
  const Tensor c = ops::matmul(a, b);

  // tn: (A^T)^T B with A' = A^T.
  const Tensor at = ops::transpose2d(a);
  EXPECT_TRUE(ops::matmul_tn(at, b).allclose(c, 1e-4f));
  // nt: A (B^T)^T with B' = B^T.
  const Tensor bt = ops::transpose2d(b);
  EXPECT_TRUE(ops::matmul_nt(a, bt).allclose(c, 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmVariants,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(5, 1, 7), std::make_tuple(8, 8, 8),
                      std::make_tuple(3, 17, 2), std::make_tuple(16, 5, 11)));

TEST(Softmax, RowsSumToOne) {
  Rng rng(3);
  Tensor a({4, 7});
  rng.fill_uniform(a, -5.0f, 5.0f);
  const Tensor s = ops::softmax_rows(a);
  for (int64_t i = 0; i < 4; ++i) {
    double row = 0.0;
    for (int64_t j = 0; j < 7; ++j) {
      EXPECT_GT(s.at(i, j), 0.0f);
      row += s.at(i, j);
    }
    EXPECT_NEAR(row, 1.0, 1e-5);
  }
}

TEST(Softmax, StableUnderLargeLogits) {
  const Tensor a({1, 3}, std::vector<float>{1000.0f, 1001.0f, 999.0f});
  const Tensor s = ops::softmax_rows(a);
  EXPECT_FALSE(std::isnan(s[0]));
  EXPECT_GT(s[1], s[0]);
  EXPECT_GT(s[0], s[2]);
}

TEST(Softmax, LogSoftmaxMatchesLogOfSoftmax) {
  Rng rng(4);
  Tensor a({3, 5});
  rng.fill_uniform(a, -3.0f, 3.0f);
  const Tensor ls = ops::log_softmax_rows(a);
  const Tensor s = ops::softmax_rows(a);
  for (int64_t i = 0; i < a.numel(); ++i)
    EXPECT_NEAR(ls[i], std::log(s[i]), 1e-5f);
}

TEST(Softmax, InvariantToRowShift) {
  Rng rng(5);
  Tensor a({2, 4});
  rng.fill_uniform(a, -1.0f, 1.0f);
  const Tensor s1 = ops::softmax_rows(a);
  const Tensor s2 = ops::softmax_rows(ops::add_scalar(a, 13.5f));
  EXPECT_TRUE(s1.allclose(s2, 1e-5f));
}

}  // namespace
}  // namespace mtlsplit
