#include <gtest/gtest.h>

#include <memory>

#include "src/common/check.hpp"
#include "src/core/evaluator.hpp"
#include "src/core/trainer.hpp"
#include "src/data/synthetic.hpp"
#include "src/models/mlp.hpp"
#include "src/models/small_cnn.hpp"
#include "test_util.hpp"

namespace ftpim {
namespace {

std::unique_ptr<InMemoryDataset> tiny_vision(std::uint64_t stream, int samples = 96) {
  SynthVisionConfig cfg;
  cfg.num_classes = 3;
  cfg.image_size = 8;
  cfg.samples = samples;
  cfg.seed = 11;
  cfg.noise_std = 0.3f;
  return make_synthvision(cfg, stream);
}

TrainConfig fast_config(int epochs) {
  TrainConfig tc;
  tc.epochs = epochs;
  tc.batch_size = 32;
  tc.sgd.lr = 0.05f;
  tc.augment.enabled = false;
  tc.seed = 5;
  return tc;
}

TEST(Trainer, LossDecreasesOnLearnableTask) {
  const auto train = tiny_vision(1);
  auto net = make_small_cnn(
      SmallCnnConfig{.image_size = 8, .width = 4, .classes = 3, .seed = 1});
  Trainer trainer(*net, *train, fast_config(6));
  const TrainStats stats = trainer.run();
  ASSERT_EQ(stats.epoch_losses.size(), 6u);
  EXPECT_LT(stats.epoch_losses.back(), 0.8f * stats.epoch_losses.front());
}

TEST(Trainer, TrainedModelBeatsChance) {
  const auto train = tiny_vision(2, 192);
  const auto test = tiny_vision(3, 96);
  auto net = make_small_cnn(
      SmallCnnConfig{.image_size = 8, .width = 4, .classes = 3, .seed = 2});
  Trainer(*net, *train, fast_config(8)).run();
  EXPECT_GT(evaluate_accuracy(*net, *test), 0.55);  // chance = 0.33
}

TEST(Trainer, NegativeEpochsAreAContractViolation) {
  const auto train = tiny_vision(1);
  auto net = make_small_cnn(
      SmallCnnConfig{.image_size = 8, .width = 2, .classes = 3, .seed = 1});
  EXPECT_THROW(Trainer(*net, *train, fast_config(-1)), ContractViolation);
  // Zero epochs is a legal no-op schedule.
  EXPECT_TRUE(Trainer(*net, *train, fast_config(0)).run().epoch_losses.empty());
}

TEST(Trainer, HooksFireInOrderAndCount) {
  const auto train = tiny_vision(4);
  auto net = make_mlp({192, 16, 3}, 3);
  // MLP needs flat input; use the small CNN instead for 4-D data. Build a
  // flat dataset via full-batch reshaping is overkill — use the CNN.
  auto cnn = make_small_cnn(
      SmallCnnConfig{.image_size = 8, .width = 2, .classes = 3, .seed = 4});
  TrainConfig tc = fast_config(2);
  Trainer trainer(*cnn, *train, tc);
  int before = 0, after_bwd = 0, after_epoch = 0;
  int order_violations = 0;
  TrainHooks hooks;
  hooks.before_forward = [&](int, std::int64_t) {
    if (before != after_bwd) ++order_violations;
    ++before;
  };
  hooks.after_backward = [&](int, std::int64_t) { ++after_bwd; };
  hooks.after_epoch = [&](int, float) { ++after_epoch; };
  trainer.set_hooks(hooks);
  trainer.run();
  const int expected_iters = 2 * 3;  // 96/32 batches * 2 epochs
  EXPECT_EQ(before, expected_iters);
  EXPECT_EQ(after_bwd, expected_iters);
  EXPECT_EQ(after_epoch, 2);
  EXPECT_EQ(order_violations, 0);
}

TEST(Trainer, CosineLrFollowsSchedule) {
  const auto train = tiny_vision(5, 32);
  auto cnn = make_small_cnn(
      SmallCnnConfig{.image_size = 8, .width = 2, .classes = 3, .seed = 6});
  TrainConfig tc = fast_config(3);
  tc.sgd.lr = 0.1f;
  Trainer trainer(*cnn, *train, tc);
  std::vector<float> lrs;
  TrainHooks hooks;
  hooks.after_epoch = [&](int, float) { lrs.push_back(trainer.optimizer().lr()); };
  trainer.set_hooks(hooks);
  trainer.run();
  ASSERT_EQ(lrs.size(), 3u);
  EXPECT_FLOAT_EQ(lrs[0], 0.1f);   // epoch 0 of 3
  EXPECT_GT(lrs[0], lrs[1]);
  EXPECT_GT(lrs[1], lrs[2]);
}

TEST(ConstantSchedule, Constant) {
  // cosine_lr off: every epoch runs at sgd.lr.
  const auto train = tiny_vision(5, 32);
  auto cnn = make_small_cnn(
      SmallCnnConfig{.image_size = 8, .width = 2, .classes = 3, .seed = 6});
  TrainConfig tc = fast_config(3);
  tc.sgd.lr = 0.02f;
  tc.cosine_lr = false;
  Trainer trainer(*cnn, *train, tc);
  std::vector<float> lrs;
  TrainHooks hooks;
  hooks.after_epoch = [&](int, float) { lrs.push_back(trainer.optimizer().lr()); };
  trainer.set_hooks(hooks);
  trainer.run(/*epoch_offset=*/2, /*total_epochs=*/10);
  EXPECT_EQ(lrs, (std::vector<float>{0.02f, 0.02f, 0.02f}));
}

TEST(Trainer, EpochOffsetSharesScheduleAcrossStages) {
  const auto train = tiny_vision(6, 32);
  auto cnn = make_small_cnn(
      SmallCnnConfig{.image_size = 8, .width = 2, .classes = 3, .seed = 7});
  TrainConfig tc = fast_config(1);
  tc.sgd.lr = 0.1f;
  Trainer trainer(*cnn, *train, tc);
  // Stage 2 of 4 with global schedule of 4 epochs: LR must be below base.
  trainer.run(/*epoch_offset=*/2, /*total_epochs=*/4);
  EXPECT_LT(trainer.optimizer().lr(), 0.06f);
}

TEST(Trainer, DeterministicGivenSeeds) {
  const auto train = tiny_vision(7);
  auto a = make_small_cnn(SmallCnnConfig{.image_size = 8, .width = 2, .classes = 3, .seed = 8});
  auto b = make_small_cnn(SmallCnnConfig{.image_size = 8, .width = 2, .classes = 3, .seed = 8});
  Trainer(*a, *train, fast_config(2)).run();
  Trainer(*b, *train, fast_config(2)).run();
  const StateDict sa = state_dict_of(*a);
  const StateDict sb = state_dict_of(*b);
  for (const auto& [name, t] : sa) {
    EXPECT_TRUE(t.allclose(sb.at(name), 1e-6f, 1e-6f)) << name;
  }
}

TEST(Evaluator, PerfectAndZeroAccuracy) {
  // A model with a huge bias toward the true class scores 1.0.
  const auto data = tiny_vision(8, 48);
  auto cnn = make_small_cnn(SmallCnnConfig{.image_size = 8, .width = 2, .classes = 3, .seed = 9});
  const double acc = evaluate_accuracy(*cnn, *data);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

TEST(Evaluator, DefectEvalRestoresWeightsAndIsDeterministic) {
  const auto data = tiny_vision(9, 48);
  auto cnn = make_small_cnn(SmallCnnConfig{.image_size = 8, .width = 2, .classes = 3, .seed = 10});
  const StateDict before = state_dict_of(*cnn);
  DefectEvalConfig cfg;
  cfg.num_runs = 4;
  cfg.seed = 77;
  const DefectEvalResult r1 = evaluate_under_defects(*cnn, *data, 0.05, cfg);
  const StateDict after = state_dict_of(*cnn);
  for (const auto& [name, t] : before) {
    EXPECT_TRUE(t.allclose(after.at(name), 0.0f, 0.0f)) << name;
  }
  const DefectEvalResult r2 = evaluate_under_defects(*cnn, *data, 0.05, cfg);
  EXPECT_EQ(r1.run_accs, r2.run_accs);
  EXPECT_EQ(r1.run_accs.size(), 4u);
  EXPECT_LE(r1.min_acc, r1.mean_acc);
  EXPECT_GE(r1.max_acc, r1.mean_acc);
}

TEST(Evaluator, ZeroRateMatchesCleanAccuracy) {
  const auto data = tiny_vision(10, 48);
  auto cnn = make_small_cnn(SmallCnnConfig{.image_size = 8, .width = 2, .classes = 3, .seed = 11});
  DefectEvalConfig cfg;
  cfg.num_runs = 2;
  const double clean = evaluate_accuracy(*cnn, *data);
  const DefectEvalResult r = evaluate_under_defects(*cnn, *data, 0.0, cfg);
  EXPECT_DOUBLE_EQ(r.mean_acc, clean);
  EXPECT_DOUBLE_EQ(r.std_acc, 0.0);
}

}  // namespace
}  // namespace ftpim
