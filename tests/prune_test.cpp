#include <gtest/gtest.h>

#include <cmath>

#include "src/models/mlp.hpp"
#include "src/prune/admm_pruner.hpp"
#include "src/tensor/tensor_ops.hpp"
#include "src/prune/magnitude_pruner.hpp"
#include "src/prune/sparsity.hpp"
#include "test_util.hpp"

namespace ftpim {
namespace {

using testing::random_tensor;

TEST(SparsityUtils, MagnitudeKeepMaskKeepsLargest) {
  const Tensor v = Tensor::from_vector({0.1f, -5.0f, 3.0f, -0.2f, 4.0f});
  const Tensor mask = magnitude_keep_mask(v, 2);
  EXPECT_EQ(mask[0], 0.0f);
  EXPECT_EQ(mask[1], 1.0f);  // |-5|
  EXPECT_EQ(mask[2], 0.0f);
  EXPECT_EQ(mask[3], 0.0f);
  EXPECT_EQ(mask[4], 1.0f);  // |4|
}

TEST(SparsityUtils, KeepMaskHandlesTiesExactly) {
  const Tensor v = Tensor::from_vector({1.0f, 1.0f, 1.0f, 1.0f});
  const Tensor mask = magnitude_keep_mask(v, 2);
  std::int64_t kept = 0;
  for (std::int64_t i = 0; i < 4; ++i) kept += mask[i] != 0.0f ? 1 : 0;
  EXPECT_EQ(kept, 2);
}

TEST(SparsityUtils, KeepMaskBoundaryCases) {
  const Tensor v = Tensor::from_vector({1.0f, 2.0f});
  EXPECT_EQ(count_zeros(magnitude_keep_mask(v, 0)), 2);
  EXPECT_EQ(count_zeros(magnitude_keep_mask(v, 2)), 0);
  EXPECT_THROW(magnitude_keep_mask(v, 3), std::invalid_argument);
}

TEST(SparsityUtils, ProjectTopkIsIdempotent) {
  const Tensor v = random_tensor(Shape{100}, 1);
  const Tensor p1 = project_topk(v, 30);
  const Tensor p2 = project_topk(p1, 30);
  EXPECT_TRUE(p1.allclose(p2, 0.0f, 0.0f));
  EXPECT_EQ(count_zeros(p1), 70);
}

TEST(MagnitudePrune, PerLayerHitsExactSparsity) {
  auto net = make_mlp({20, 30, 10}, 2);
  const auto masks =
      magnitude_prune(*net, MagnitudePruneConfig{.sparsity = 0.5, .scope = PruneScope::kPerLayer});
  for (const PruneMask& m : masks) {
    const double layer_sparsity =
        static_cast<double>(m.pruned()) / static_cast<double>(m.mask.numel());
    EXPECT_NEAR(layer_sparsity, 0.5, 0.01) << m.param->name;
  }
  EXPECT_NEAR(model_sparsity(*net), 0.5, 0.01);
}

TEST(MagnitudePrune, GlobalHitsOverallSparsity) {
  auto net = make_mlp({20, 30, 10}, 3);
  magnitude_prune(*net, MagnitudePruneConfig{.sparsity = 0.7, .scope = PruneScope::kGlobal});
  EXPECT_NEAR(model_sparsity(*net), 0.7, 0.01);
}

TEST(MagnitudePrune, GlobalUsesOneThreshold) {
  // Make layer 0 weights tiny and layer 1 large: global pruning should prune
  // (almost) all of layer 0 before touching layer 1.
  auto net = make_mlp({10, 10, 10}, 4);
  auto params = crossbar_params(*net);
  ASSERT_EQ(params.size(), 2u);
  for (std::int64_t i = 0; i < params[0]->value.numel(); ++i) params[0]->value[i] *= 0.001f;
  for (std::int64_t i = 0; i < params[1]->value.numel(); ++i) params[1]->value[i] += 10.0f;
  magnitude_prune(*net, MagnitudePruneConfig{.sparsity = 0.5, .scope = PruneScope::kGlobal});
  EXPECT_EQ(count_zeros(params[0]->value), params[0]->value.numel());
  EXPECT_EQ(count_zeros(params[1]->value), 0);
}

TEST(MagnitudePrune, PrunesSmallestMagnitudes) {
  auto net = make_mlp({8, 8}, 5);
  auto params = crossbar_params(*net);
  const Tensor before = params[0]->value;
  magnitude_prune(*net, MagnitudePruneConfig{.sparsity = 0.25});
  float max_pruned = 0.0f, min_kept = 1e9f;
  for (std::int64_t i = 0; i < before.numel(); ++i) {
    if (params[0]->value[i] == 0.0f) {
      max_pruned = std::max(max_pruned, std::fabs(before[i]));
    } else {
      min_kept = std::min(min_kept, std::fabs(before[i]));
    }
  }
  EXPECT_LE(max_pruned, min_kept);
}

TEST(MagnitudePrune, Validation) {
  auto net = make_mlp({4, 4}, 6);
  EXPECT_THROW(magnitude_prune(*net, MagnitudePruneConfig{.sparsity = 1.0}),
               std::invalid_argument);
  EXPECT_THROW(magnitude_prune(*net, MagnitudePruneConfig{.sparsity = -0.1}),
               std::invalid_argument);
}

TEST(Admm, Validation) {
  auto net = make_mlp({4, 4}, 7);
  EXPECT_THROW(AdmmPruner(*net, AdmmConfig{.sparsity = 1.0}), std::invalid_argument);
  EXPECT_THROW(AdmmPruner(*net, AdmmConfig{.sparsity = 0.5, .rho = 0.0f}),
               std::invalid_argument);
}

TEST(Admm, RegularizerPullsWeightsTowardProjection) {
  // Pure ADMM dynamics without a data loss: repeatedly applying the proximal
  // gradient should shrink the primal residual ||W - Z||.
  auto net = make_mlp({16, 16}, 8);
  AdmmPruner pruner(*net, AdmmConfig{.sparsity = 0.5, .rho = 0.5f});
  auto params = crossbar_params(*net);
  const double initial = pruner.primal_residual();
  for (int iter = 0; iter < 60; ++iter) {
    for (Param* p : params) p->grad.zero();
    pruner.regularize_grads();
    for (Param* p : params) {
      for (std::int64_t i = 0; i < p->value.numel(); ++i) {
        p->value[i] -= 0.5f * p->grad[i];
      }
    }
    if (iter % 10 == 9) pruner.dual_update();
  }
  EXPECT_LT(pruner.primal_residual(), 0.5 * initial);
}

TEST(Admm, FinalizeHitsExactPerLayerSparsity) {
  auto net = make_mlp({20, 30, 10}, 9);
  AdmmPruner pruner(*net, AdmmConfig{.sparsity = 0.7, .rho = 1e-2f});
  const auto masks = pruner.finalize();
  for (const PruneMask& m : masks) {
    const double s = static_cast<double>(m.pruned()) / static_cast<double>(m.mask.numel());
    EXPECT_NEAR(s, 0.7, 0.01);
  }
  EXPECT_NEAR(model_sparsity(*net), 0.7, 0.01);
}

TEST(Admm, RegularizeIsNoOpAfterFinalize) {
  auto net = make_mlp({8, 8}, 10);
  AdmmPruner pruner(*net, AdmmConfig{.sparsity = 0.5, .rho = 1.0f});
  pruner.finalize();
  auto params = crossbar_params(*net);
  for (Param* p : params) p->grad.zero();
  pruner.regularize_grads();
  for (const Param* p : params) {
    for (std::int64_t i = 0; i < p->grad.numel(); ++i) EXPECT_EQ(p->grad[i], 0.0f);
  }
}

TEST(SparsityUtils, ReportMentionsEveryLayer) {
  auto net = make_mlp({4, 6, 2}, 11);
  const std::string report = sparsity_report(*net);
  EXPECT_NE(report.find("0.weight"), std::string::npos);
  EXPECT_NE(report.find("2.weight"), std::string::npos);
  EXPECT_NE(report.find("overall"), std::string::npos);
}

class SparsityLevelTest : public ::testing::TestWithParam<double> {};

TEST_P(SparsityLevelTest, GlobalPruneTracksTarget) {
  auto net = make_mlp({32, 32, 16}, 12);
  magnitude_prune(*net, MagnitudePruneConfig{.sparsity = GetParam()});
  EXPECT_NEAR(model_sparsity(*net), GetParam(), 0.02);
}

INSTANTIATE_TEST_SUITE_P(Levels, SparsityLevelTest, ::testing::Values(0.0, 0.2, 0.4, 0.7, 0.9));

}  // namespace
}  // namespace ftpim
