#include <gtest/gtest.h>

#include <cmath>

#include "src/models/mlp.hpp"
#include "src/reram/fault_injector.hpp"
#include "src/reram/redundancy.hpp"
#include "test_util.hpp"

namespace ftpim {
namespace {

using testing::random_tensor;

TEST(Redundancy, Validation) {
  Tensor w = random_tensor(Shape{8}, 1);
  Rng rng(2);
  EXPECT_THROW(
      apply_faults_with_redundancy(w, StuckAtFaultModel(0.1), RedundancyConfig{.replicas = 2}, rng),
      std::invalid_argument);
  EXPECT_THROW(
      apply_faults_with_redundancy(w, StuckAtFaultModel(0.1), RedundancyConfig{.replicas = 0}, rng),
      std::invalid_argument);
}

TEST(Redundancy, ZeroRateIsIdentity) {
  Tensor w = random_tensor(Shape{500}, 3);
  const Tensor original = w;
  Rng rng(4);
  const auto stats =
      apply_faults_with_redundancy(w, StuckAtFaultModel(0.0), RedundancyConfig{.replicas = 3}, rng);
  EXPECT_TRUE(w.allclose(original, 0.0f, 0.0f));
  EXPECT_EQ(stats.faulted_cells, 0);
  EXPECT_EQ(stats.cells, 3000);
}

TEST(Redundancy, SingleReplicaMatchesPlainInjectorStatistically) {
  // R=1 redundancy IS the plain injector model; expected distortion at equal
  // rates must match within Monte-Carlo noise.
  const Tensor base = random_tensor(Shape{20000}, 5, 0.3f);
  const double p = 0.05;

  Tensor w_red = base;
  Rng rng1(6);
  apply_faults_with_redundancy(w_red, StuckAtFaultModel(p), RedundancyConfig{.replicas = 1}, rng1);
  double mad_red = 0.0;
  for (std::int64_t i = 0; i < base.numel(); ++i) mad_red += std::fabs(w_red[i] - base[i]);

  Tensor w_plain = base;
  Rng rng2(7);
  apply_stuck_at_faults(w_plain, StuckAtFaultModel(p), {}, rng2);
  double mad_plain = 0.0;
  for (std::int64_t i = 0; i < base.numel(); ++i) mad_plain += std::fabs(w_plain[i] - base[i]);

  EXPECT_NEAR(mad_red, mad_plain, 0.2 * std::max(mad_red, mad_plain));
}

TEST(Redundancy, TmrMasksMostSingleFaults) {
  // At fault rates where at most one replica of a weight typically faults,
  // the median readback must be far less distorted than R=1.
  const Tensor base = random_tensor(Shape{20000}, 8, 0.3f);
  const double p = 0.02;
  double mads[2] = {0.0, 0.0};
  const int replicas[2] = {1, 3};
  for (int k = 0; k < 2; ++k) {
    Tensor w = base;
    Rng rng(derive_seed(9, static_cast<std::uint64_t>(k)));
    apply_faults_with_redundancy(w, StuckAtFaultModel(p),
                                 RedundancyConfig{.replicas = replicas[k]}, rng);
    for (std::int64_t i = 0; i < base.numel(); ++i) mads[k] += std::fabs(w[i] - base[i]);
  }
  EXPECT_LT(mads[1], 0.3 * mads[0]);  // TMR removes the large majority of damage
}

TEST(Redundancy, MedianKeepsWeightsWithinFullScale) {
  Tensor w = random_tensor(Shape{5000}, 10);
  const float wmax = w.abs_max();
  Rng rng(11);
  apply_faults_with_redundancy(w, StuckAtFaultModel(0.5), RedundancyConfig{.replicas = 5}, rng);
  for (std::int64_t i = 0; i < w.numel(); ++i) {
    EXPECT_LE(std::fabs(w[i]), wmax * (1.0f + 1e-5f));
  }
}

TEST(Redundancy, GuardRestoresCleanWeights) {
  auto net = make_mlp({6, 10, 3}, 12);
  const StateDict before = state_dict_of(*net);
  {
    Rng rng(13);
    RedundantFaultGuard guard(*net, StuckAtFaultModel(0.3), RedundancyConfig{.replicas = 3}, rng);
    EXPECT_GT(guard.stats().faulted_cells, 0);
  }
  for (const Param* p : parameters_of(*net)) {
    EXPECT_TRUE(p->value.allclose(before.at(p->name), 0.0f, 0.0f)) << p->name;
  }
}

TEST(Redundancy, ModelInjectorSkipsNonCrossbarParams) {
  auto net = make_mlp({6, 10, 3}, 14);
  std::vector<Tensor> biases;
  for (const Param* p : parameters_of(*net)) {
    if (p->kind == ParamKind::kBias) biases.push_back(p->value);
  }
  Rng rng(15);
  const RedundantFaultGuard guard(*net, StuckAtFaultModel(0.5), RedundancyConfig{.replicas = 3},
                                  rng);
  std::size_t b = 0;
  for (const Param* p : parameters_of(*net)) {
    if (p->kind == ParamKind::kBias) {
      EXPECT_TRUE(p->value.allclose(biases[b++], 0.0f, 0.0f));
    }
  }
}

class RedundancyLevelTest : public ::testing::TestWithParam<int> {};

TEST_P(RedundancyLevelTest, MoreReplicasNeverHurt) {
  const Tensor base = random_tensor(Shape{30000}, 16, 0.3f);
  const double p = 0.05;
  Tensor w1 = base, wr = base;
  Rng rng1(17), rng2(18);
  apply_faults_with_redundancy(w1, StuckAtFaultModel(p), RedundancyConfig{.replicas = 1}, rng1);
  apply_faults_with_redundancy(wr, StuckAtFaultModel(p),
                               RedundancyConfig{.replicas = GetParam()}, rng2);
  double mad1 = 0.0, madr = 0.0;
  for (std::int64_t i = 0; i < base.numel(); ++i) {
    mad1 += std::fabs(w1[i] - base[i]);
    madr += std::fabs(wr[i] - base[i]);
  }
  EXPECT_LT(madr, mad1 * 1.05);
}

INSTANTIATE_TEST_SUITE_P(Replicas, RedundancyLevelTest, ::testing::Values(3, 5, 7));

}  // namespace
}  // namespace ftpim
