#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "src/models/mlp.hpp"
#include "src/reram/fault_injector.hpp"
#include "test_util.hpp"

namespace ftpim {
namespace {

using testing::random_tensor;

TEST(ApplyFault, ZeroRateIsIdentity) {
  Tensor w = random_tensor(Shape{100}, 1);
  const Tensor original = w;
  Rng rng(2);
  const InjectionStats stats = apply_stuck_at_faults(w, w, StuckAtFaultModel(0.0), {}, rng);
  EXPECT_TRUE(w.allclose(original, 0.0f, 0.0f));
  EXPECT_EQ(stats.faulted_cells, 0);
  EXPECT_EQ(stats.affected_weights, 0);
  EXPECT_EQ(stats.cells, 200);
}

TEST(ApplyFault, StatsTrackCellRate) {
  Tensor w = random_tensor(Shape{50000}, 3);
  Rng rng(4);
  const InjectionStats stats = apply_stuck_at_faults(w, w, StuckAtFaultModel(0.02), {}, rng);
  EXPECT_NEAR(stats.cell_fault_rate(), 0.02, 0.003);
  EXPECT_GT(stats.affected_weights, 0);
  EXPECT_LE(stats.affected_weights, stats.faulted_cells);
}

TEST(ApplyFault, FaultedWeightsStayWithinFullScale) {
  Tensor w = random_tensor(Shape{10000}, 5);
  const float wmax = w.abs_max();
  Rng rng(6);
  apply_stuck_at_faults(w, w, StuckAtFaultModel(0.5), {}, rng);
  for (std::int64_t i = 0; i < w.numel(); ++i) {
    EXPECT_LE(std::fabs(w[i]), wmax * (1.0f + 1e-5f));
  }
}

TEST(ApplyFault, AllStuckOnSaturatesZeroWeights) {
  // All cells stuck on: G+ = G- = Gmax -> effective weight 0 for every value.
  Tensor w = random_tensor(Shape{64}, 7);
  Rng rng(8);
  apply_stuck_at_faults(w, w, StuckAtFaultModel(1.0, /*sa0_fraction=*/0.0), {}, rng);
  for (std::int64_t i = 0; i < w.numel(); ++i) EXPECT_NEAR(w[i], 0.0f, 1e-5f);
}

TEST(ApplyFault, AllStuckOffZeroesEverything) {
  Tensor w = random_tensor(Shape{64}, 9);
  Rng rng(10);
  apply_stuck_at_faults(w, w, StuckAtFaultModel(1.0, /*sa0_fraction=*/1.0), {}, rng);
  for (std::int64_t i = 0; i < w.numel(); ++i) EXPECT_NEAR(w[i], 0.0f, 1e-5f);
}

TEST(ApplyFault, SingleStuckOnCellGivesFullScale) {
  // With sa0_fraction=0 (all faults stuck-ON) a faulted pair for a weight w
  // can read back only: +wmax (G+ stuck on), w - wmax (G- stuck on), or 0
  // (both stuck on). With tiny w = 0.001 the magnitudes are ~0, ~0.999, ~1.
  const float w_small = 0.001f;
  Tensor w(Shape{1000}, w_small);
  w[0] = 1.0f;  // sets w_max
  Rng rng(11);
  Tensor mask;
  apply_stuck_at_faults(w, w, StuckAtFaultModel(0.5, 0.0), {}, rng, &mask);
  int fullscale = 0;
  for (std::int64_t i = 1; i < w.numel(); ++i) {
    if (mask[i] == 0.0f) continue;
    const float a = std::fabs(w[i]);
    const bool both_stuck = a < 1e-5f;
    const bool pos_stuck = std::fabs(w[i] - 1.0f) < 1e-5f;
    const bool neg_stuck = std::fabs(w[i] - (w_small - 1.0f)) < 1e-5f;
    EXPECT_TRUE(both_stuck || pos_stuck || neg_stuck) << w[i];
    if (pos_stuck || neg_stuck) ++fullscale;
  }
  EXPECT_GT(fullscale, 100);  // plenty of single-cell faults at p=0.5
}

TEST(ApplyFault, HitMaskMarksExactlyChangedWeights) {
  Tensor w = random_tensor(Shape{5000}, 12);
  const Tensor original = w;
  Rng rng(13);
  Tensor mask;
  apply_stuck_at_faults(w, w, StuckAtFaultModel(0.05), {}, rng, &mask);
  for (std::int64_t i = 0; i < w.numel(); ++i) {
    if (w[i] != original[i]) {
      EXPECT_EQ(mask[i], 1.0f) << i;
    } else {
      // mask=1 with equal value is possible only when the stuck value equals
      // the programmed value — not counted as affected.
      if (mask[i] == 1.0f) ADD_FAILURE() << "mask set but weight unchanged at " << i;
    }
  }
}

TEST(ApplyFault, DeterministicForSeed) {
  Tensor w1 = random_tensor(Shape{2000}, 14);
  Tensor w2 = w1;
  Rng rng1(15), rng2(15);
  apply_stuck_at_faults(w1, w1, StuckAtFaultModel(0.03), {}, rng1);
  apply_stuck_at_faults(w2, w2, StuckAtFaultModel(0.03), {}, rng2);
  EXPECT_TRUE(w1.allclose(w2, 0.0f, 0.0f));
}

TEST(ApplyFault, QuantizationPathRoundsCleanWeights) {
  InjectorConfig config;
  config.quant_levels = 4;
  Tensor w = random_tensor(Shape{256}, 16);
  Rng rng(17);
  apply_stuck_at_faults(w, w, StuckAtFaultModel(0.0), config, rng);
  // With 4 levels the weight values must come from a small discrete set.
  std::set<int> buckets;
  const float wmax = 1e-4f + w.abs_max();
  for (std::int64_t i = 0; i < w.numel(); ++i) {
    buckets.insert(static_cast<int>(std::lround(w[i] / wmax * 3.0f)));
  }
  EXPECT_LE(buckets.size(), 7u);  // 2*levels - 1 differential values
}

TEST(ApplyFault, ZeroTensorIsSafe) {
  Tensor w(Shape{128});
  Rng rng(18);
  EXPECT_NO_THROW(apply_stuck_at_faults(w, w, StuckAtFaultModel(0.1), {}, rng));
  for (std::int64_t i = 0; i < w.numel(); ++i) EXPECT_TRUE(std::isfinite(w[i]));
}

TEST(InjectIntoModel, OnlyTouchesCrossbarWeights) {
  auto net = make_mlp({8, 16, 4}, 19);
  // Record biases before.
  std::vector<Tensor> biases;
  for (const Param* p : parameters_of(*net)) {
    if (p->kind == ParamKind::kBias) biases.push_back(p->value);
  }
  Rng rng(20);
  const InjectionStats stats = inject_into_model(*net, StuckAtFaultModel(0.3), {}, rng);
  EXPECT_GT(stats.faulted_cells, 0);
  std::size_t b = 0;
  for (const Param* p : parameters_of(*net)) {
    if (p->kind == ParamKind::kBias) {
      EXPECT_TRUE(p->value.allclose(biases[b++], 0.0f, 0.0f)) << p->name;
    }
  }
}

TEST(FaultInjectionSession, RestoresCleanWeights) {
  auto net = make_mlp({6, 12, 3}, 21);
  const StateDict before = state_dict_of(*net);
  {
    FaultInjectionSession session(*net);
    Rng rng(22);
    EXPECT_GT(session.inject(StuckAtFaultModel(0.2), {}, rng).faulted_cells, 0);
    // Weights are perturbed inside the scope.
    bool changed = false;
    for (const Param* p : crossbar_params(*net)) {
      if (!p->value.allclose(before.at(p->name), 0.0f, 0.0f)) changed = true;
    }
    EXPECT_TRUE(changed);
  }
  for (const Param* p : parameters_of(*net)) {
    EXPECT_TRUE(p->value.allclose(before.at(p->name), 0.0f, 0.0f)) << p->name;
  }
}

TEST(FaultInjectionSession, RestoreIsIdempotent) {
  auto net = make_mlp({4, 4}, 23);
  const StateDict before = state_dict_of(*net);
  FaultInjectionSession session(*net);
  Rng rng(24);
  session.inject(StuckAtFaultModel(0.5), {}, rng);
  session.restore();
  session.restore();
  EXPECT_FALSE(session.injected());
  for (const Param* p : parameters_of(*net)) {
    EXPECT_TRUE(p->value.allclose(before.at(p->name), 0.0f, 0.0f));
  }
}

TEST(FaultInjectionSession, RestoresWhenEvaluationThrows) {
  // The session is the exception-safety story of every evaluate-under-faults
  // scope: clean weights must come back even when the evaluation throws.
  auto net = make_mlp({6, 12, 3}, 29);
  const StateDict before = state_dict_of(*net);
  EXPECT_THROW(
      {
        FaultInjectionSession session(*net);
        Rng rng(30);
        session.inject(StuckAtFaultModel(0.3), {}, rng);
        throw std::runtime_error("evaluation blew up");
      },
      std::runtime_error);
  for (const Param* p : parameters_of(*net)) {
    EXPECT_TRUE(p->value.allclose(before.at(p->name), 0.0f, 0.0f)) << p->name;
  }
}

TEST(ApplyFaultToCopy, SourceUntouchedAndMatchesInPlace) {
  const Tensor src = random_tensor(Shape{4096}, 31);
  const Tensor original = src;

  Tensor dst;
  Tensor mask;
  Rng rng_copy(32);
  const InjectionStats s1 =
      apply_stuck_at_faults(src, dst, StuckAtFaultModel(0.05), {}, rng_copy, &mask);
  EXPECT_TRUE(src.allclose(original, 0.0f, 0.0f));

  // Same RNG seed through the in-place path must give the same read-back.
  Tensor inplace = src;
  Rng rng_inplace(32);
  const InjectionStats s2 =
      apply_stuck_at_faults(inplace, inplace, StuckAtFaultModel(0.05), {}, rng_inplace);
  EXPECT_TRUE(dst.allclose(inplace, 0.0f, 0.0f));
  EXPECT_EQ(s1.faulted_cells, s2.faulted_cells);
  EXPECT_EQ(s1.affected_weights, s2.affected_weights);

  // Storage reuse contract: a second call with a matching shape keeps dst's
  // allocation.
  const float* dst_storage = dst.data();
  Rng rng_again(33);
  apply_stuck_at_faults(src, dst, StuckAtFaultModel(0.05), {}, rng_again, &mask);
  EXPECT_EQ(dst.data(), dst_storage);
}

TEST(FaultInjectionSession, InjectRestoreCyclesAreDeterministic) {
  auto net = make_mlp({6, 12, 3}, 34);
  const StateDict before = state_dict_of(*net);

  FaultInjectionSession session(*net);
  Rng rng_a(35);
  session.inject(StuckAtFaultModel(0.2), {}, rng_a);
  const StateDict faulted_first = state_dict_of(*net);
  session.restore();
  for (const Param* p : parameters_of(*net)) {
    EXPECT_TRUE(p->value.allclose(before.at(p->name), 0.0f, 0.0f)) << p->name;
  }

  // Re-injecting with the same seed through the SAME session (reused
  // buffers) reproduces the first faulted state bitwise.
  Rng rng_b(35);
  session.inject(StuckAtFaultModel(0.2), {}, rng_b);
  const StateDict faulted_second = state_dict_of(*net);
  for (const auto& [name, tensor] : faulted_first) {
    EXPECT_TRUE(tensor.allclose(faulted_second.at(name), 0.0f, 0.0f)) << name;
  }
  session.restore();
  session.restore();  // idempotent
  for (const Param* p : parameters_of(*net)) {
    EXPECT_TRUE(p->value.allclose(before.at(p->name), 0.0f, 0.0f)) << p->name;
  }
}

TEST(FaultInjectionSession, InjectWithoutRestoreRedrawsFromCleanWeights) {
  // inject() on an already-injected session must restore first: the second
  // draw applies to clean weights, not faulted-on-faulted ones.
  auto net = make_mlp({4, 8, 2}, 36);
  FaultInjectionSession session(*net);
  Rng rng1(37);
  session.inject(StuckAtFaultModel(0.3), {}, rng1);
  Rng rng2(37);
  session.inject(StuckAtFaultModel(0.3), {}, rng2);  // no restore in between
  const StateDict direct = state_dict_of(*net);
  session.restore();

  Rng rng3(37);
  session.inject(StuckAtFaultModel(0.3), {}, rng3);
  const StateDict clean_draw = state_dict_of(*net);
  session.restore();
  for (const auto& [name, tensor] : direct) {
    EXPECT_TRUE(tensor.allclose(clean_draw.at(name), 0.0f, 0.0f)) << name;
  }
}

TEST(FaultInjectionSession, DestructorRestores) {
  auto net = make_mlp({4, 8, 2}, 38);
  const StateDict before = state_dict_of(*net);
  {
    FaultInjectionSession session(*net);
    Rng rng(39);
    session.inject(StuckAtFaultModel(0.5), {}, rng);
  }
  for (const Param* p : parameters_of(*net)) {
    EXPECT_TRUE(p->value.allclose(before.at(p->name), 0.0f, 0.0f)) << p->name;
  }
}

TEST(FaultInjectionSession, HitMasksAlignWithParams) {
  auto net = make_mlp({10, 10, 10}, 25);
  FaultInjectionSession session(*net);
  Rng rng(26);
  session.inject(StuckAtFaultModel(0.1), {}, rng);
  ASSERT_EQ(session.faulted_params().size(), session.hit_masks().size());
  for (std::size_t k = 0; k < session.faulted_params().size(); ++k) {
    EXPECT_EQ(session.faulted_params()[k]->value.shape(), session.hit_masks()[k].shape());
    EXPECT_EQ(session.faulted_params()[k]->kind, ParamKind::kCrossbarWeight);
  }
}

class InjectionRateTest : public ::testing::TestWithParam<double> {};

TEST_P(InjectionRateTest, ObservedRateTracksTarget) {
  const double p = GetParam();
  Tensor w = random_tensor(Shape{100000}, 27);
  Rng rng(28);
  const InjectionStats stats = apply_stuck_at_faults(w, w, StuckAtFaultModel(p), {}, rng);
  EXPECT_NEAR(stats.cell_fault_rate(), p, std::max(0.002, p * 0.15));
}

INSTANTIATE_TEST_SUITE_P(Rates, InjectionRateTest,
                         ::testing::Values(0.001, 0.005, 0.01, 0.05, 0.1, 0.2));

}  // namespace
}  // namespace ftpim
