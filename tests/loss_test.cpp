#include <gtest/gtest.h>

#include <cmath>

#include "src/nn/loss.hpp"
#include "test_util.hpp"

namespace ftpim {
namespace {

TEST(Softmax, RowsSumToOne) {
  const Tensor logits = testing::random_tensor(Shape{5, 7}, 1, 3.0f);
  const Tensor probs = softmax_rows(logits);
  for (std::int64_t r = 0; r < 5; ++r) {
    double sum = 0.0;
    for (std::int64_t c = 0; c < 7; ++c) {
      EXPECT_GT(probs.at(r, c), 0.0f);
      sum += probs.at(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Softmax, StableForLargeLogits) {
  const Tensor logits(Shape{1, 3}, std::vector<float>{1000.0f, 1001.0f, 999.0f});
  const Tensor probs = softmax_rows(logits);
  for (std::int64_t i = 0; i < 3; ++i) EXPECT_TRUE(std::isfinite(probs[i]));
  EXPECT_GT(probs[1], probs[0]);
  EXPECT_GT(probs[0], probs[2]);
}

TEST(SoftmaxCrossEntropy, UniformLogitsGiveLogC) {
  const SoftmaxCrossEntropy ce;
  const Tensor logits(Shape{2, 4});  // all zeros -> uniform
  const LossResult r = ce.forward(logits, {0, 3});
  EXPECT_NEAR(r.loss, std::log(4.0f), 1e-5);
}

TEST(SoftmaxCrossEntropy, PerfectPredictionLowLoss) {
  const SoftmaxCrossEntropy ce;
  Tensor logits(Shape{1, 3});
  logits.at(0, 1) = 50.0f;
  const LossResult r = ce.forward(logits, {1});
  EXPECT_LT(r.loss, 1e-4f);
}

TEST(SoftmaxCrossEntropy, GradientIsProbsMinusOneHotOverN) {
  const SoftmaxCrossEntropy ce;
  const Tensor logits = testing::random_tensor(Shape{3, 4}, 2);
  const Tensor probs = softmax_rows(logits);
  const std::vector<std::int64_t> labels{1, 0, 3};
  const LossResult r = ce.forward(logits, labels);
  for (std::int64_t i = 0; i < 3; ++i) {
    for (std::int64_t j = 0; j < 4; ++j) {
      const float expected =
          (probs.at(i, j) - (labels[static_cast<std::size_t>(i)] == j ? 1.0f : 0.0f)) / 3.0f;
      EXPECT_NEAR(r.grad_logits.at(i, j), expected, 1e-5f);
    }
  }
}

TEST(SoftmaxCrossEntropy, GradientMatchesNumeric) {
  const SoftmaxCrossEntropy ce;
  Tensor logits = testing::random_tensor(Shape{2, 5}, 3);
  const std::vector<std::int64_t> labels{4, 2};
  const LossResult r = ce.forward(logits, labels);
  const float eps = 1e-2f;
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    const float saved = logits[i];
    logits[i] = saved + eps;
    const float up = ce.loss_only(logits, labels);
    logits[i] = saved - eps;
    const float down = ce.loss_only(logits, labels);
    logits[i] = saved;
    EXPECT_NEAR((up - down) / (2 * eps), r.grad_logits[i], 2e-3f) << "i=" << i;
  }
}

TEST(SoftmaxCrossEntropy, GradSumsToZeroPerRow) {
  const SoftmaxCrossEntropy ce;
  const Tensor logits = testing::random_tensor(Shape{4, 6}, 4);
  const LossResult r = ce.forward(logits, {0, 1, 2, 3});
  for (std::int64_t i = 0; i < 4; ++i) {
    double sum = 0.0;
    for (std::int64_t j = 0; j < 6; ++j) sum += r.grad_logits.at(i, j);
    EXPECT_NEAR(sum, 0.0, 1e-6);
  }
}

TEST(SoftmaxCrossEntropy, Validation) {
  const SoftmaxCrossEntropy ce;
  EXPECT_THROW(ce.forward(Tensor(Shape{2, 3}), {0}), std::invalid_argument);
  EXPECT_THROW(ce.forward(Tensor(Shape{1, 3}), {5}), std::out_of_range);
  EXPECT_THROW((void)ce.loss_only(Tensor(Shape{1, 3}), {-1}), std::out_of_range);
  EXPECT_THROW((void)ce.loss_only(Tensor(Shape{2, 3}), {0}), std::invalid_argument);
}

TEST(SoftmaxCrossEntropy, LossOnlyMatchesForward) {
  const SoftmaxCrossEntropy ce;
  const Tensor logits = testing::random_tensor(Shape{6, 3}, 5);
  const std::vector<std::int64_t> labels{0, 1, 2, 0, 1, 2};
  EXPECT_NEAR(ce.loss_only(logits, labels), ce.forward(logits, labels).loss, 1e-6f);
}

}  // namespace
}  // namespace ftpim
