// Unit tests for the Tensor container and Shape utilities.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "tensor/shape.hpp"
#include "tensor/tensor.hpp"
#include "test_util.hpp"

namespace mtlsplit {
namespace {

using testing::thrown_what;

TEST(Shape, NumelAndStrides) {
  EXPECT_EQ(numel({2, 3, 4}), 24);
  EXPECT_EQ(numel({}), 1);
  EXPECT_EQ(numel({5}), 5);
  EXPECT_EQ(numel({0, 7}), 0);
  const Shape s = row_major_strides({2, 3, 4});
  EXPECT_EQ(s, (Shape{12, 4, 1}));
}

TEST(Shape, NegativeDimThrows) {
  EXPECT_THROW(numel({2, -1}), std::invalid_argument);
}

TEST(Shape, ToString) {
  EXPECT_EQ(shape_str({2, 3}), "[2, 3]");
  EXPECT_EQ(shape_str({}), "[]");
}

// Streams as "part" and counts how often it was formatted.
struct CountedPart {
  int* calls;
};

std::ostream& operator<<(std::ostream& os, const CountedPart& p) {
  ++*p.calls;
  return os << "part";
}

TEST(Check, FormatsMessageOnlyOnFailure) {
  int calls = 0;
  const CountedPart part{&calls};
  check_arg(true, "arg ", part, " ", 7);
  check_bounds(true, "bounds ", part);
  EXPECT_EQ(calls, 0);

  EXPECT_EQ(thrown_what<std::invalid_argument>(
                [&] { check_arg(false, "arg ", part, " ", 7); }),
            "arg part 7");
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(thrown_what<std::out_of_range>([&] {
              check_bounds(false, "bounds ", part, " of ", Shape{2, 3});
            }),
            "bounds part of [2, 3]");
  EXPECT_EQ(calls, 2);
}

TEST(Tensor, DefaultIsEmpty) {
  const Tensor t;
  EXPECT_EQ(t.numel(), 0);
  EXPECT_EQ(t.shape(), (Shape{0}));
}

TEST(Tensor, ZeroInitialised) {
  const Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6);
  for (int64_t i = 0; i < 6; ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FillValueConstructor) {
  const Tensor t({4}, 2.5f);
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(t[i], 2.5f);
}

TEST(Tensor, DataConstructorValidatesSize) {
  EXPECT_NO_THROW(Tensor({2, 2}, std::vector<float>{1, 2, 3, 4}));
  EXPECT_EQ(thrown_what<std::invalid_argument>(
                [] { Tensor({2, 2}, std::vector<float>{1, 2, 3}); }),
            "Tensor: data size 3 does not match shape [2, 2]");
}

TEST(Tensor, FromValues) {
  const Tensor t = Tensor::from_values({1.0f, 2.0f, 3.0f});
  EXPECT_EQ(t.shape(), (Shape{3}));
  EXPECT_EQ(t[1], 2.0f);
}

TEST(Tensor, SizeSupportsNegativeIndex) {
  const Tensor t({2, 3, 4});
  EXPECT_EQ(t.size(0), 2);
  EXPECT_EQ(t.size(-1), 4);
  EXPECT_EQ(t.size(-3), 2);
  // The message shows the index after negative wrapping.
  EXPECT_EQ(thrown_what<std::out_of_range>([&] { t.size(3); }),
            "Tensor::size: dim 3 out of range for [2, 3, 4]");
  EXPECT_EQ(thrown_what<std::out_of_range>([&] { t.size(-4); }),
            "Tensor::size: dim -1 out of range for [2, 3, 4]");
}

TEST(Tensor, At2d) {
  Tensor t({2, 3});
  t.at(1, 2) = 7.0f;
  EXPECT_EQ(t[5], 7.0f);
  EXPECT_EQ(thrown_what<std::out_of_range>([&] { t.at(2, 0); }),
            "Tensor::at: (2,0) out of range [2, 3]");
  EXPECT_THROW(t.at(0, 3), std::out_of_range);
  Tensor t3({2, 3, 4});
  EXPECT_THROW(t3.at(0, 0), std::out_of_range);
}

TEST(Tensor, At4d) {
  Tensor t({2, 3, 4, 5});
  t.at(1, 2, 3, 4) = 9.0f;
  EXPECT_EQ(t[t.numel() - 1], 9.0f);
  EXPECT_THROW(t.at(0, 3, 0, 0), std::out_of_range);
}

TEST(Tensor, LinearAtBoundsChecked) {
  Tensor t({3});
  EXPECT_NO_THROW(t.at(2));
  EXPECT_THROW(t.at(3), std::out_of_range);
  EXPECT_THROW(t.at(-1), std::out_of_range);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3}, std::vector<float>{1, 2, 3, 4, 5, 6});
  const Tensor r = t.reshape({3, 2});
  EXPECT_EQ(r.shape(), (Shape{3, 2}));
  for (int64_t i = 0; i < 6; ++i) EXPECT_EQ(r[i], t[i]);
}

TEST(Tensor, ReshapeInfersDimension) {
  const Tensor t({2, 6});
  EXPECT_EQ(t.reshape({4, -1}).shape(), (Shape{4, 3}));
  EXPECT_EQ(t.reshape({-1}).shape(), (Shape{12}));
}

TEST(Tensor, ReshapeRejectsBadShapes) {
  const Tensor t({2, 6});
  EXPECT_THROW(t.reshape({5, -1}), std::invalid_argument);
  EXPECT_THROW(t.reshape({-1, -1}), std::invalid_argument);
  EXPECT_THROW(t.reshape({13}), std::invalid_argument);
}

TEST(Tensor, EqualsAndClone) {
  Tensor a({2, 2}, std::vector<float>{1, 2, 3, 4});
  Tensor b = a.clone();
  EXPECT_TRUE(a.equals(b));
  b[0] = 5.0f;
  EXPECT_FALSE(a.equals(b));
  EXPECT_FALSE(a.equals(a.reshape({4})));  // shape matters
}

TEST(Tensor, Allclose) {
  Tensor a({3}, std::vector<float>{1.0f, 2.0f, 3.0f});
  Tensor b({3}, std::vector<float>{1.0f, 2.0f + 5e-6f, 3.0f});
  EXPECT_TRUE(a.allclose(b));
  b[1] = 2.1f;
  EXPECT_FALSE(a.allclose(b));
  EXPECT_TRUE(a.allclose(b, 0.2f));
}

TEST(Tensor, AllcloseHandlesNan) {
  Tensor a({1}, std::vector<float>{std::nanf("")});
  Tensor b({1}, std::vector<float>{std::nanf("")});
  Tensor c({1}, std::vector<float>{0.0f});
  EXPECT_TRUE(a.allclose(b));   // NaN matches NaN (positional comparison)
  EXPECT_FALSE(a.allclose(c));
}

TEST(Tensor, FillAndZero) {
  Tensor t({2, 2});
  t.fill(3.0f);
  EXPECT_EQ(t[3], 3.0f);
  t.zero();
  EXPECT_EQ(t[0], 0.0f);
}

}  // namespace
}  // namespace mtlsplit
