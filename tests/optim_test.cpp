#include <gtest/gtest.h>

#include <cmath>

#include "src/common/rng.hpp"
#include "src/nn/linear.hpp"
#include "src/optim/lr_scheduler.hpp"
#include "src/optim/sgd.hpp"
#include "test_util.hpp"

namespace ftpim {
namespace {

Param make_param(const char* name, std::vector<float> values, ParamKind kind) {
  const auto n = static_cast<std::int64_t>(values.size());
  return Param(name, Tensor(Shape{n}, std::move(values)), kind);
}

TEST(Sgd, PlainStepMatchesManual) {
  Param p = make_param("w", {1.0f, 2.0f}, ParamKind::kCrossbarWeight);
  p.grad = Tensor::from_vector({0.5f, -0.5f});
  Sgd opt({&p}, SgdConfig{.lr = 0.1f, .momentum = 0.0f, .weight_decay = 0.0f, .grad_clip = 0.0f});
  opt.step();
  EXPECT_FLOAT_EQ(p.value[0], 1.0f - 0.1f * 0.5f);
  EXPECT_FLOAT_EQ(p.value[1], 2.0f + 0.1f * 0.5f);
}

TEST(Sgd, MomentumAccumulates) {
  Param p = make_param("w", {0.0f}, ParamKind::kCrossbarWeight);
  Sgd opt({&p}, SgdConfig{.lr = 1.0f, .momentum = 0.5f, .weight_decay = 0.0f, .grad_clip = 0.0f});
  p.grad = Tensor::from_vector({1.0f});
  opt.step();  // v=1, w=-1
  EXPECT_FLOAT_EQ(p.value[0], -1.0f);
  p.grad = Tensor::from_vector({1.0f});
  opt.step();  // v=1.5, w=-2.5
  EXPECT_FLOAT_EQ(p.value[0], -2.5f);
}

TEST(Sgd, WeightDecayOnlyOnCrossbarWeights) {
  Param w = make_param("w", {1.0f}, ParamKind::kCrossbarWeight);
  Param g = make_param("gamma", {1.0f}, ParamKind::kNorm);
  Param b = make_param("bias", {1.0f}, ParamKind::kBias);
  Sgd opt({&w, &g, &b},
          SgdConfig{.lr = 1.0f, .momentum = 0.0f, .weight_decay = 0.1f, .grad_clip = 0.0f});
  opt.step();  // zero grads: only decay acts
  EXPECT_FLOAT_EQ(w.value[0], 0.9f);
  EXPECT_FLOAT_EQ(g.value[0], 1.0f);
  EXPECT_FLOAT_EQ(b.value[0], 1.0f);
}

TEST(Sgd, GradClipScalesLargeGradients) {
  Param p = make_param("w", {0.0f, 0.0f}, ParamKind::kBias);
  p.grad = Tensor::from_vector({3.0f, 4.0f});  // norm 5
  Sgd opt({&p}, SgdConfig{.lr = 1.0f, .momentum = 0.0f, .weight_decay = 0.0f, .grad_clip = 1.0f});
  opt.step();
  // Clipped to unit norm: grad (0.6, 0.8).
  EXPECT_NEAR(p.value[0], -0.6f, 1e-5f);
  EXPECT_NEAR(p.value[1], -0.8f, 1e-5f);
}

TEST(Sgd, MaskFreezesPrunedPositions) {
  Param p = make_param("w", {1.0f, 2.0f}, ParamKind::kCrossbarWeight);
  Sgd opt({&p}, SgdConfig{.lr = 0.1f, .momentum = 0.9f, .weight_decay = 0.0f, .grad_clip = 0.0f});
  Tensor mask = Tensor::from_vector({0.0f, 1.0f});
  opt.set_mask(&p, mask);
  p.value[0] = 0.0f;  // pruned position
  p.grad = Tensor::from_vector({5.0f, 5.0f});
  opt.step();
  EXPECT_FLOAT_EQ(p.value[0], 0.0f);  // stays pruned
  EXPECT_LT(p.value[1], 2.0f);        // free position updated
}

TEST(Sgd, MaskShapeValidation) {
  Param p = make_param("w", {1.0f, 2.0f}, ParamKind::kCrossbarWeight);
  Sgd opt({&p}, SgdConfig{});
  EXPECT_THROW(opt.set_mask(&p, Tensor(Shape{3})), std::invalid_argument);
}

TEST(Sgd, ConfigValidation) {
  Param p = make_param("w", {1.0f}, ParamKind::kCrossbarWeight);
  EXPECT_THROW(Sgd({&p}, SgdConfig{.lr = 0.0f}), std::invalid_argument);
  EXPECT_THROW(Sgd({&p}, SgdConfig{.lr = 0.1f, .momentum = 1.0f}), std::invalid_argument);
}

TEST(Sgd, ConvergesOnQuadratic) {
  // min (w-3)^2: gradient 2(w-3).
  Param p = make_param("w", {0.0f}, ParamKind::kBias);
  Sgd opt({&p}, SgdConfig{.lr = 0.1f, .momentum = 0.9f, .weight_decay = 0.0f, .grad_clip = 0.0f});
  for (int i = 0; i < 200; ++i) {
    p.grad = Tensor::from_vector({2.0f * (p.value[0] - 3.0f)});
    opt.step();
  }
  EXPECT_NEAR(p.value[0], 3.0f, 1e-3f);
}

TEST(CosineSchedule, EndpointsAndMidpoint) {
  EXPECT_FLOAT_EQ(cosine_annealed_lr(0.1f, 0.0f, 0, 100), 0.1f);
  EXPECT_NEAR(cosine_annealed_lr(0.1f, 0.0f, 50, 100), 0.05f, 1e-6f);
  EXPECT_LT(cosine_annealed_lr(0.1f, 0.0f, 99, 100), 0.001f);
  EXPECT_FLOAT_EQ(cosine_annealed_lr(0.1f, 0.0f, 0, 1), 0.1f);  // one-epoch schedule
}

TEST(CosineSchedule, MonotoneDecreasing) {
  for (int e = 1; e < 50; ++e) {
    EXPECT_LE(cosine_annealed_lr(0.1f, 0.0f, e, 50), cosine_annealed_lr(0.1f, 0.0f, e - 1, 50));
  }
}

TEST(CosineSchedule, Validation) {
  EXPECT_THROW((void)cosine_annealed_lr(0.0f, 0.0f, 0, 10), std::invalid_argument);
  EXPECT_THROW((void)cosine_annealed_lr(0.1f, 0.2f, 0, 10), std::invalid_argument);
  EXPECT_THROW((void)cosine_annealed_lr(0.1f, -0.1f, 0, 10), std::invalid_argument);
}

}  // namespace
}  // namespace ftpim
