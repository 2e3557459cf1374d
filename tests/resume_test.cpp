// Kill/resume equivalence for fault-tolerant training (DESIGN.md §10).
//
// The contract under test: a progressive FT run checkpointed every epoch,
// killed after any epoch — at a stage boundary or mid-stage — and resumed
// from the checkpoint must land on final weights and FtTrainStats that are
// BIT-IDENTICAL to the never-interrupted run, at any thread count. These
// tests simulate the kill by running the full baseline once, then replaying
// the tail from every checkpoint it left behind with a fresh model object.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "src/common/parallel.hpp"
#include "src/tensor/serialize.hpp"
#include "src/core/ft_trainer.hpp"
#include "src/common/checkpoint.hpp"
#include "src/core/train_checkpoint.hpp"
#include "src/data/synthetic.hpp"
#include "src/models/small_cnn.hpp"
#include "test_util.hpp"

namespace ftpim {
namespace {

namespace fs = std::filesystem;

using testing::scratch_dir;

std::unique_ptr<InMemoryDataset> tiny_vision() {
  SynthVisionConfig cfg;
  cfg.num_classes = 3;
  cfg.image_size = 8;
  cfg.samples = 48;
  cfg.seed = 11;
  cfg.noise_std = 0.3f;
  return make_synthvision(cfg, 1);
}

std::unique_ptr<Module> fresh_model() {
  return make_small_cnn(SmallCnnConfig{.image_size = 8, .width = 2, .classes = 3, .seed = 21});
}

/// Progressive 2-stage run, 2 epochs per stage, augmentation ON so the
/// cross-epoch DataLoader RNG stream actually matters for equivalence.
FtTrainConfig ft_config(const std::string& ckpt_dir) {
  FtTrainConfig ft;
  ft.base.epochs = 2;
  ft.base.batch_size = 16;
  ft.base.sgd.lr = 0.05f;
  ft.base.augment.enabled = true;
  ft.base.seed = 9;
  ft.scheme = FtScheme::kProgressive;
  ft.target_p_sa = 0.02;
  ft.progressive_levels = {0.01, 0.02};
  ft.fault_seed = 77;
  ft.checkpoint.dir = ckpt_dir;
  ft.checkpoint.every_epochs = 1;
  ft.checkpoint.keep_last = 100;  // keep every epoch so each is resumable
  ft.checkpoint.keep_best = false;
  return ft;
}

std::vector<std::uint8_t> weight_bytes(Module& model) {
  return encode_state_dict(state_dict_of(model));
}

void expect_stats_identical(const FtTrainStats& a, const FtTrainStats& b) {
  EXPECT_EQ(a.stage_rates, b.stage_rates);
  ASSERT_EQ(a.stage_stats.size(), b.stage_stats.size());
  for (std::size_t s = 0; s < a.stage_stats.size(); ++s) {
    EXPECT_EQ(a.stage_stats[s].epoch_losses, b.stage_stats[s].epoch_losses) << "stage " << s;
  }
  EXPECT_EQ(a.mean_cell_fault_rate, b.mean_cell_fault_rate);  // exact, not approx
}

/// Runs the baseline once, then resumes from every checkpoint it produced
/// and demands bit-identical final weights and stats.
void run_equivalence(int threads, const std::string& tag) {
  set_num_threads(threads);
  const auto data = tiny_vision();
  const fs::path base_dir = scratch_dir("base_" + tag);

  auto baseline_model = fresh_model();
  FaultTolerantTrainer baseline(*baseline_model, *data, ft_config(base_dir.string()));
  const FtTrainStats base_stats = baseline.run();
  const std::vector<std::uint8_t> base_weights = weight_bytes(*baseline_model);
  const int total_epochs = 4;  // 2 stages x 2 epochs

  // Every epoch left a checkpoint: 1 = mid stage 0, 2 = stage boundary,
  // 3 = mid stage 1, 4 = run complete.
  for (int k = 1; k <= total_epochs; ++k) {
    const fs::path ckpt = base_dir / checkpoint_filename(k);
    ASSERT_TRUE(fs::exists(ckpt)) << ckpt;

    const fs::path resume_dir = scratch_dir("resume_" + tag + "_" + std::to_string(k));
    auto model = fresh_model();  // weights come from the checkpoint, not init
    FaultTolerantTrainer trainer(*model, *data, ft_config(resume_dir.string()));
    const FtTrainStats stats = trainer.resume(ckpt.string());

    EXPECT_EQ(weight_bytes(*model), base_weights) << "resumed from epoch " << k;
    expect_stats_identical(stats, base_stats);
  }
  set_num_threads(0);
}

TEST(FtResume, BitIdenticalFromEveryKillPointSingleThread) {
  run_equivalence(1, "t1");
}

TEST(FtResume, BitIdenticalFromEveryKillPointFourThreads) {
  run_equivalence(4, "t4");
}

TEST(FtResume, OneShotSchemeResumesMidRun) {
  const auto data = tiny_vision();
  const fs::path base_dir = scratch_dir("oneshot_base");

  FtTrainConfig cfg = ft_config(base_dir.string());
  cfg.scheme = FtScheme::kOneShot;
  cfg.progressive_levels.clear();
  cfg.base.epochs = 3;

  auto baseline_model = fresh_model();
  const FtTrainStats base_stats =
      FaultTolerantTrainer(*baseline_model, *data, cfg).run();

  FtTrainConfig resume_cfg = cfg;
  resume_cfg.checkpoint.dir = scratch_dir("oneshot_resume").string();
  auto model = fresh_model();
  FaultTolerantTrainer trainer(*model, *data, resume_cfg);
  const FtTrainStats stats =
      trainer.resume((base_dir / checkpoint_filename(2)).string());

  EXPECT_EQ(weight_bytes(*model), weight_bytes(*baseline_model));
  expect_stats_identical(stats, base_stats);
}

TEST(FtResume, CompletedCheckpointRestoresWithoutTraining) {
  const auto data = tiny_vision();
  const fs::path base_dir = scratch_dir("complete_base");

  auto baseline_model = fresh_model();
  FaultTolerantTrainer baseline(*baseline_model, *data, ft_config(base_dir.string()));
  const FtTrainStats base_stats = baseline.run();

  auto model = fresh_model();
  FaultTolerantTrainer trainer(*model, *data,
                               ft_config(scratch_dir("complete_resume").string()));
  const FtTrainStats stats =
      trainer.resume((base_dir / checkpoint_filename(4)).string());

  EXPECT_EQ(weight_bytes(*model), weight_bytes(*baseline_model));
  expect_stats_identical(stats, base_stats);
}

TEST(FtResume, LatestCheckpointFindsTheNewest) {
  const auto data = tiny_vision();
  const fs::path dir = scratch_dir("latest");
  auto model = fresh_model();
  FaultTolerantTrainer(*model, *data, ft_config(dir.string())).run();
  EXPECT_EQ(latest_checkpoint(dir.string()), (dir / checkpoint_filename(4)).string());
}

TEST(FtResume, MismatchedConfigIsRejected) {
  const auto data = tiny_vision();
  const fs::path base_dir = scratch_dir("mismatch_base");
  auto model = fresh_model();
  FaultTolerantTrainer(*model, *data, ft_config(base_dir.string())).run();
  const std::string ckpt = (base_dir / checkpoint_filename(1)).string();

  // Any numerically relevant divergence must be refused as kStateMismatch.
  FtTrainConfig changed = ft_config(scratch_dir("mismatch_resume").string());
  changed.fault_seed = 78;
  auto other = fresh_model();
  FaultTolerantTrainer trainer(*other, *data, changed);
  try {
    (void)trainer.resume(ckpt);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointErrorKind::kStateMismatch);
  }
}

TEST(FtResume, VerboseAndCheckpointPolicyDoNotBlockResume) {
  // verbose and retention knobs are excluded from the config echo: flipping
  // them between the original run and the resume is legal.
  const auto data = tiny_vision();
  const fs::path base_dir = scratch_dir("policy_base");
  auto baseline_model = fresh_model();
  FaultTolerantTrainer baseline(*baseline_model, *data, ft_config(base_dir.string()));
  const FtTrainStats base_stats = baseline.run();

  FtTrainConfig changed = ft_config(scratch_dir("policy_resume").string());
  changed.checkpoint.every_epochs = 2;
  changed.checkpoint.keep_last = 1;
  changed.checkpoint.keep_best = true;
  auto model = fresh_model();
  FaultTolerantTrainer trainer(*model, *data, changed);
  const FtTrainStats stats =
      trainer.resume((base_dir / checkpoint_filename(3)).string());
  EXPECT_EQ(weight_bytes(*model), weight_bytes(*baseline_model));
  expect_stats_identical(stats, base_stats);
}

TEST(FtResume, RetentionPrunesDuringTraining) {
  const auto data = tiny_vision();
  const fs::path dir = scratch_dir("retention_live");
  FtTrainConfig cfg = ft_config(dir.string());
  cfg.checkpoint.keep_last = 1;
  cfg.checkpoint.keep_best = false;
  auto model = fresh_model();
  FaultTolerantTrainer(*model, *data, cfg).run();
  // Only the final checkpoint survives a keep_last=1 policy.
  EXPECT_FALSE(fs::exists(dir / checkpoint_filename(1)));
  EXPECT_FALSE(fs::exists(dir / checkpoint_filename(2)));
  EXPECT_FALSE(fs::exists(dir / checkpoint_filename(3)));
  EXPECT_TRUE(fs::exists(dir / checkpoint_filename(4)));
}

}  // namespace
}  // namespace ftpim
