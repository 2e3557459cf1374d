#include <gtest/gtest.h>

#include "src/tensor/tensor.hpp"
#include "src/tensor/tensor_ops.hpp"

namespace ftpim {
namespace {

TEST(Tensor, ZeroInitialized) {
  const Tensor t(Shape{2, 3});
  EXPECT_EQ(t.numel(), 6);
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FillConstructor) {
  const Tensor t(Shape{4}, 2.5f);
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_EQ(t[i], 2.5f);
}

TEST(Tensor, ShapeMismatchThrows) {
  EXPECT_THROW(Tensor(Shape{2, 2}, std::vector<float>{1.0f}), std::invalid_argument);
}

TEST(Tensor, NegativeDimThrows) { EXPECT_THROW(Tensor(Shape{-1, 2}), std::invalid_argument); }

TEST(Tensor, ReshapePreservesData) {
  Tensor t = Tensor::from_vector({1, 2, 3, 4, 5, 6});
  const Tensor r = t.reshaped(Shape{2, 3});
  EXPECT_EQ(r.at(1, 2), 6.0f);
  EXPECT_THROW(t.reshaped(Shape{5}), std::invalid_argument);
}

TEST(Tensor, Reductions) {
  const Tensor t = Tensor::from_vector({-3, 1, 2});
  EXPECT_FLOAT_EQ(t.sum(), 0.0f);
  EXPECT_FLOAT_EQ(t.mean(), 0.0f);
  EXPECT_FLOAT_EQ(t.min(), -3.0f);
  EXPECT_FLOAT_EQ(t.max(), 2.0f);
  EXPECT_FLOAT_EQ(t.abs_max(), 3.0f);
}

TEST(TensorOps, ArgmaxRow) {
  const Tensor logits(Shape{2, 3}, std::vector<float>{0.1f, 0.9f, 0.0f, 2.0f, 1.0f, 0.5f});
  EXPECT_EQ(argmax_row(logits, 0), 1);
  EXPECT_EQ(argmax_row(logits, 1), 0);
}

TEST(TensorOps, KthLargestAbs) {
  const Tensor t = Tensor::from_vector({-5, 1, 3, -2});
  EXPECT_FLOAT_EQ(kth_largest_abs(t, 1), 5.0f);
  EXPECT_FLOAT_EQ(kth_largest_abs(t, 2), 3.0f);
  EXPECT_FLOAT_EQ(kth_largest_abs(t, 4), 1.0f);
  EXPECT_THROW(kth_largest_abs(t, 0), std::invalid_argument);
  EXPECT_THROW(kth_largest_abs(t, 5), std::invalid_argument);
}

TEST(TensorOps, CountZeros) {
  EXPECT_EQ(count_zeros(Tensor::from_vector({0, 1, 0, 2})), 2);
}

}  // namespace
}  // namespace ftpim
