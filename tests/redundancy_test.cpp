#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>

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

TEST(Redundancy, SingleReplicaMatchesPlainInjectorBitExactly) {
  // R=1 redundancy IS the plain injector at quant_levels 0: the same seed
  // draws the same per-cell stream, so the read-back bits and the stats
  // must match exactly.
  const Tensor base = random_tensor(Shape{20000}, 5, 0.3f);
  for (const double p : {0.01, 0.05, 0.2}) {
    SCOPED_TRACE(p);
    Tensor w_red = base;
    Rng rng1(6);
    const InjectionStats red = apply_faults_with_redundancy(
        w_red, StuckAtFaultModel(p), RedundancyConfig{.replicas = 1}, rng1);

    Tensor w_plain;
    Rng rng2(6);
    const InjectionStats plain =
        apply_stuck_at_faults(base, w_plain, StuckAtFaultModel(p), {}, rng2);

    EXPECT_EQ(std::memcmp(w_red.data(), w_plain.data(),
                          static_cast<std::size_t>(base.numel()) * sizeof(float)),
              0);
    EXPECT_EQ(red.cells, plain.cells);
    EXPECT_EQ(red.faulted_cells, plain.faulted_cells);
    EXPECT_EQ(red.affected_weights, plain.affected_weights);
    EXPECT_GT(plain.affected_weights, 0);
  }
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

TEST(Redundancy, ModelFunctionWalksCrossbarWeightsInOrder) {
  // The model-level function is the per-tensor one over crossbar_params, in
  // walk order, on one stream; its stats are the per-tensor sums.
  auto net = make_mlp({6, 10, 3}, 12);
  const std::unique_ptr<Module> per_tensor = net->clone();
  const RedundancyConfig config{.replicas = 3};
  Rng rng(13);
  const InjectionStats stats =
      apply_redundancy_to_model(*net, StuckAtFaultModel(0.3), config, rng);
  EXPECT_GT(stats.faulted_cells, 0);

  Rng replay(13);
  InjectionStats sum;
  for (Param* p : crossbar_params(*per_tensor)) {
    sum += apply_faults_with_redundancy(p->value, StuckAtFaultModel(0.3), config, replay);
  }
  EXPECT_EQ(stats.cells, sum.cells);
  EXPECT_EQ(stats.faulted_cells, sum.faulted_cells);
  EXPECT_EQ(stats.affected_weights, sum.affected_weights);
  EXPECT_EQ(encode_state_dict(state_dict_of(*net)),
            encode_state_dict(state_dict_of(*per_tensor)));
}

TEST(Redundancy, ModelInjectorSkipsNonCrossbarParams) {
  auto net = make_mlp({6, 10, 3}, 14);
  std::vector<Tensor> biases;
  for (const Param* p : parameters_of(*net)) {
    if (p->kind == ParamKind::kBias) biases.push_back(p->value);
  }
  Rng rng(15);
  (void)apply_redundancy_to_model(*net, StuckAtFaultModel(0.5), RedundancyConfig{.replicas = 3},
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
