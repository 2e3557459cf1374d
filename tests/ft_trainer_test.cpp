#include <gtest/gtest.h>

#include <memory>

#include "src/common/check.hpp"
#include "src/core/evaluator.hpp"
#include "src/core/ft_trainer.hpp"
#include "src/data/synthetic.hpp"
#include "src/models/small_cnn.hpp"
#include "test_util.hpp"

namespace ftpim {
namespace {

std::unique_ptr<InMemoryDataset> tiny_vision(std::uint64_t stream, int samples = 128) {
  SynthVisionConfig cfg;
  cfg.num_classes = 3;
  cfg.image_size = 8;
  cfg.samples = samples;
  cfg.seed = 21;
  cfg.noise_std = 0.3f;
  return make_synthvision(cfg, stream);
}

std::unique_ptr<Sequential> tiny_model(std::uint64_t seed) {
  return make_small_cnn(SmallCnnConfig{.image_size = 8, .width = 4, .classes = 3, .seed = seed});
}

FtTrainConfig fast_ft(double target) {
  FtTrainConfig ft;
  ft.base.epochs = 2;
  ft.base.batch_size = 32;
  ft.base.sgd.lr = 0.05f;
  ft.base.augment.enabled = false;
  ft.target_p_sa = target;
  return ft;
}

TEST(DefaultRamp, AscendsToTarget) {
  const auto ramp = default_progressive_ramp(0.08);
  ASSERT_EQ(ramp.size(), 4u);
  EXPECT_DOUBLE_EQ(ramp[0], 0.01);
  EXPECT_DOUBLE_EQ(ramp[3], 0.08);
  for (std::size_t i = 1; i < ramp.size(); ++i) EXPECT_GT(ramp[i], ramp[i - 1]);
}

TEST(FtTrainer, Validation) {
  const auto train = tiny_vision(1);
  auto model = tiny_model(1);
  FtTrainConfig bad = fast_ft(-0.1);
  EXPECT_THROW(FaultTolerantTrainer(*model, *train, bad), std::invalid_argument);

  FtTrainConfig descending = fast_ft(0.1);
  descending.scheme = FtScheme::kProgressive;
  descending.progressive_levels = {0.1, 0.05};
  EXPECT_THROW(FaultTolerantTrainer(*model, *train, descending), std::invalid_argument);

  FtTrainConfig wrong_end = fast_ft(0.1);
  wrong_end.scheme = FtScheme::kProgressive;
  wrong_end.progressive_levels = {0.01, 0.05};
  EXPECT_THROW(FaultTolerantTrainer(*model, *train, wrong_end), std::invalid_argument);
}

TEST(FtTrainer, NegativeEpochsAreAContractViolation) {
  const auto train = tiny_vision(1);
  auto model = tiny_model(1);
  FtTrainConfig negative = fast_ft(0.05);
  negative.base.epochs = -1;
  EXPECT_THROW(FaultTolerantTrainer(*model, *train, negative), ContractViolation);
}

TEST(FtTrainer, OneShotUsesSingleStage) {
  const auto train = tiny_vision(2);
  auto model = tiny_model(2);
  FaultTolerantTrainer trainer(*model, *train, fast_ft(0.05));
  ASSERT_EQ(trainer.stage_rates().size(), 1u);
  EXPECT_DOUBLE_EQ(trainer.stage_rates()[0], 0.05);
}

TEST(FtTrainer, ProgressiveDefaultsToRamp) {
  const auto train = tiny_vision(3);
  auto model = tiny_model(3);
  FtTrainConfig ft = fast_ft(0.08);
  ft.scheme = FtScheme::kProgressive;
  FaultTolerantTrainer trainer(*model, *train, ft);
  EXPECT_EQ(trainer.stage_rates(), default_progressive_ramp(0.08));
}

TEST(FtTrainer, RunReportsStagesAndFaultRate) {
  const auto train = tiny_vision(4);
  auto model = tiny_model(4);
  FtTrainConfig ft = fast_ft(0.05);
  ft.scheme = FtScheme::kProgressive;
  ft.progressive_levels = {0.025, 0.05};
  FaultTolerantTrainer trainer(*model, *train, ft);
  const FtTrainStats stats = trainer.run();
  ASSERT_EQ(stats.stage_stats.size(), 2u);
  EXPECT_EQ(stats.stage_stats[0].epoch_losses.size(), 2u);
  // Mean observed cell fault rate across stages ~ mean of the two levels.
  EXPECT_NEAR(stats.mean_cell_fault_rate, 0.0375, 0.02);
}

TEST(FtTrainer, WeightsEndCleanAndFinite) {
  const auto train = tiny_vision(5);
  auto model = tiny_model(5);
  FtTrainConfig ft = fast_ft(0.3);  // heavy faults during training
  FaultTolerantTrainer(*model, *train, ft).run();
  for (const Param* p : parameters_of(*model)) {
    for (std::int64_t i = 0; i < p->value.numel(); ++i) {
      EXPECT_TRUE(std::isfinite(p->value[i])) << p->name;
    }
  }
  // A clean forward still works and is not degenerate.
  const auto test = tiny_vision(6, 64);
  EXPECT_GT(evaluate_accuracy(*model, *test), 0.2);
}

TEST(FtTrainer, ImprovesDefectAccuracyOverPlainTraining) {
  // Integration check of the paper's core claim at miniature scale.
  const auto train = tiny_vision(7, 256);
  const auto test = tiny_vision(8, 128);
  const double p_sa = 0.08;

  auto plain = tiny_model(9);
  {
    TrainConfig tc = fast_ft(p_sa).base;
    tc.epochs = 6;
    Trainer(*plain, *train, tc).run();
  }
  auto ft_model = std::make_unique<Sequential>();
  // Clone plain into a new model and FT-train it.
  auto clone = tiny_model(9);
  load_state_dict_into(*clone, state_dict_of(*plain));
  FtTrainConfig ft = fast_ft(p_sa);
  ft.base.epochs = 6;
  FaultTolerantTrainer(*clone, *train, ft).run();

  DefectEvalConfig cfg;
  cfg.num_runs = 8;
  cfg.seed = 123;
  const double acc_plain = evaluate_under_defects(*plain, *test, p_sa, cfg).mean_acc;
  const double acc_ft = evaluate_under_defects(*clone, *test, p_sa, cfg).mean_acc;
  EXPECT_GT(acc_ft, acc_plain - 0.02);  // FT must not be worse (usually much better)
}

TEST(FtTrainer, MaskedGradModeRuns) {
  const auto train = tiny_vision(10);
  auto model = tiny_model(10);
  FtTrainConfig ft = fast_ft(0.1);
  ft.grad_mode = GradMode::kMasked;
  EXPECT_NO_THROW(FaultTolerantTrainer(*model, *train, ft).run());
}

TEST(FtTrainer, PerIterationRefreshRuns) {
  const auto train = tiny_vision(11);
  auto model = tiny_model(11);
  FtTrainConfig ft = fast_ft(0.1);
  ft.refresh = FaultRefresh::kPerIteration;
  EXPECT_NO_THROW(FaultTolerantTrainer(*model, *train, ft).run());
}

TEST(FtTrainer, DeterministicAcrossRuns) {
  const auto train = tiny_vision(12);
  auto a = tiny_model(13);
  auto b = tiny_model(13);
  FaultTolerantTrainer(*a, *train, fast_ft(0.05)).run();
  FaultTolerantTrainer(*b, *train, fast_ft(0.05)).run();
  const StateDict sa = state_dict_of(*a);
  const StateDict sb = state_dict_of(*b);
  for (const auto& [name, t] : sa) EXPECT_TRUE(t.allclose(sb.at(name), 1e-6f, 1e-6f)) << name;
}

}  // namespace
}  // namespace ftpim
