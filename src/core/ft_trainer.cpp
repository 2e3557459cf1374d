#include "src/core/ft_trainer.hpp"

#include "src/common/check.hpp"
#include "src/common/checkpoint.hpp"

#include <filesystem>
#include <utility>

#include "src/common/logging.hpp"
#include "src/tensor/serialize.hpp"
#include "src/common/timer.hpp"
#include "src/core/train_checkpoint.hpp"

namespace ftpim {
namespace {

constexpr char kAugmentRngStream[] = "dataloader.augment";

/// Cursor/loss-shape validation for a loaded checkpoint. The CRC layer only
/// guarantees the bytes are the ones that were written; this guards against
/// a checkpoint whose cursor is inconsistent with its own loss record.
void validate_cursor(const TrainingCheckpoint& ckpt, std::size_t num_stages,
                     int epochs_per_stage) {
  const auto fail = [](const std::string& detail) {
    throw CheckpointError(CheckpointErrorKind::kFormat, "CURS", detail);
  };
  if (ckpt.next_stage > num_stages) fail("next_stage beyond the stage list");
  if (ckpt.next_stage == num_stages && ckpt.next_epoch != 0) {
    fail("completed run with a nonzero next_epoch");
  }
  if (ckpt.next_stage < num_stages &&
      ckpt.next_epoch >= static_cast<std::uint32_t>(epochs_per_stage)) {
    fail("next_epoch beyond the stage's epoch budget");
  }
  const std::size_t want_stages =
      static_cast<std::size_t>(ckpt.next_stage) + (ckpt.next_epoch > 0 ? 1 : 0);
  if (ckpt.epoch_losses.size() != want_stages) fail("loss record disagrees with the cursor");
  for (std::size_t s = 0; s < ckpt.epoch_losses.size(); ++s) {
    const std::size_t want = (s < static_cast<std::size_t>(ckpt.next_stage))
                                 ? static_cast<std::size_t>(epochs_per_stage)
                                 : static_cast<std::size_t>(ckpt.next_epoch);
    if (ckpt.epoch_losses[s].size() != want) fail("loss record disagrees with the cursor");
  }
  if (ckpt.rate_count < 0) fail("negative fault-rate sample count");
}

}  // namespace

std::vector<double> default_progressive_ramp(double target_p_sa) {
  return {target_p_sa / 8.0, target_p_sa / 4.0, target_p_sa / 2.0, target_p_sa};
}

std::vector<std::uint8_t> encode_ft_config_echo(const FtTrainConfig& config,
                                                const std::vector<double>& stage_rates) {
  ByteWriter out;
  out.u32(2);  // echo layout version
  const TrainConfig& base = config.base;
  out.i64(base.epochs);
  out.i64(base.batch_size);
  out.f32(base.sgd.lr);
  out.f32(base.sgd.momentum);
  out.f32(base.sgd.weight_decay);
  out.f32(base.sgd.grad_clip);
  out.u8(base.cosine_lr ? 1 : 0);
  out.i64(base.augment.crop_pad);
  out.u8(base.augment.hflip ? 1 : 0);
  out.u8(base.augment.enabled ? 1 : 0);
  out.u64(base.seed);
  // `verbose` and the checkpoint policy are deliberately excluded: neither
  // affects the numerical trajectory, so changing them must not block resume.
  out.u8(static_cast<std::uint8_t>(config.scheme));
  out.f64(config.target_p_sa);
  out.u64(config.progressive_levels.size());
  for (const double level : config.progressive_levels) out.f64(level);
  out.u8(static_cast<std::uint8_t>(config.grad_mode));
  out.u8(static_cast<std::uint8_t>(config.refresh));
  out.f64(config.sa0_fraction);
  out.f32(config.injector.range.g_min);
  out.f32(config.injector.range.g_max);
  out.i64(config.injector.quant_levels);
  out.u64(config.fault_seed);
  out.u64(stage_rates.size());
  for (const double rate : stage_rates) out.f64(rate);
  return out.take();
}

FaultTolerantTrainer::FaultTolerantTrainer(Module& model, const Dataset& train_data,
                                           FtTrainConfig config)
    : model_(model), train_data_(train_data), config_(std::move(config)) {
  FTPIM_CHECK(!(config_.target_p_sa < 0.0 || config_.target_p_sa > 1.0), "FaultTolerantTrainer: target_p_sa must be in [0,1]");
  FTPIM_CHECK_GE(config_.base.epochs, 0, "FtTrainConfig: base.epochs");
  if (config_.scheme == FtScheme::kOneShot) {
    stage_rates_ = {config_.target_p_sa};
  } else {
    stage_rates_ = config_.progressive_levels.empty() ? default_progressive_ramp(config_.target_p_sa)
                                                      : config_.progressive_levels;
    for (std::size_t i = 1; i < stage_rates_.size(); ++i) {
      FTPIM_CHECK(!(stage_rates_[i] < stage_rates_[i - 1]), "FaultTolerantTrainer: progressive levels must ascend");
    }
    FTPIM_CHECK(!(stage_rates_.empty() || stage_rates_.back() != config_.target_p_sa), "FaultTolerantTrainer: progressive levels must end at target_p_sa");
  }
  if (!config_.checkpoint.dir.empty()) {
    FTPIM_CHECK_GE(config_.checkpoint.every_epochs, 1, "FtCheckpointConfig: every_epochs");
    FTPIM_CHECK_GE(config_.checkpoint.keep_last, 1, "FtCheckpointConfig: keep_last");
  }
}

FtTrainStats FaultTolerantTrainer::run() { return run_internal(nullptr); }

FtTrainStats FaultTolerantTrainer::resume(const std::string& checkpoint_path) {
  const TrainingCheckpoint ckpt = load_training_checkpoint(checkpoint_path);
  const std::vector<std::uint8_t> echo = encode_ft_config_echo(config_, stage_rates_);
  if (ckpt.config_echo != echo) {
    throw CheckpointError(CheckpointErrorKind::kStateMismatch, "CFG0",
                          "checkpoint was produced by a differently configured run");
  }
  if (ckpt.stage_rates != stage_rates_) {
    throw CheckpointError(CheckpointErrorKind::kStateMismatch, "CURS",
                          "checkpoint stage rates disagree with this run's schedule");
  }
  validate_cursor(ckpt, stage_rates_.size(), config_.base.epochs);
  if (config_.base.verbose) {
    log_info("FT resume from %s: next stage %u, next epoch %u", checkpoint_path.c_str(),
             ckpt.next_stage, ckpt.next_epoch);
  }
  return run_internal(&ckpt);
}

FtTrainStats FaultTolerantTrainer::run_internal(const TrainingCheckpoint* restore) {
  FtTrainStats stats;
  stats.stage_rates = stage_rates_;
  const int epochs_per_stage = config_.base.epochs;
  const std::size_t num_stages = stage_rates_.size();
  const int total_epochs = epochs_per_stage * static_cast<int>(num_stages);

  double rate_sum = 0.0;
  std::int64_t rate_count = 0;
  std::size_t start_stage = 0;
  int start_epoch = 0;
  // Losses of every fully completed stage, oldest first; a checkpoint's loss
  // record is this plus the in-progress stage's partial list.
  std::vector<std::vector<float>> completed_losses;

  if (restore != nullptr) {
    load_state_dict_into(model_, restore->model);
    rate_sum = restore->rate_sum;
    rate_count = restore->rate_count;
    start_stage = restore->next_stage;
    start_epoch = static_cast<int>(restore->next_epoch);
    for (std::size_t s = 0; s < start_stage; ++s) {
      completed_losses.push_back(restore->epoch_losses[s]);
      stats.stage_stats.push_back(TrainStats{restore->epoch_losses[s]});
    }
  }

  const FtCheckpointConfig& ckpt_config = config_.checkpoint;
  const bool checkpoints_on = !ckpt_config.dir.empty();
  CheckpointRetention retention(checkpoints_on ? ckpt_config.keep_last : 1,
                                checkpoints_on && ckpt_config.keep_best);
  std::vector<std::uint8_t> config_echo;
  if (checkpoints_on) {
    config_echo = encode_ft_config_echo(config_, stage_rates_);
    std::filesystem::create_directories(ckpt_config.dir);
  }

  // One session for the whole run: the clean-weight shadows and hit-mask
  // buffers are allocated once and reused by every iteration's
  // inject/restore cycle instead of rebuilding a fresh guard snapshot per
  // before_forward hook.
  FaultInjectionSession session(model_);

  for (std::size_t stage = start_stage; stage < num_stages; ++stage) {
    const double p_sa = stage_rates_[stage];
    const StuckAtFaultModel fault_model(p_sa, config_.sa0_fraction);
    TrainConfig stage_config = config_.base;
    // Decorrelate batch order across stages while staying deterministic.
    stage_config.seed = derive_seed(config_.base.seed, stage);
    Trainer trainer(model_, train_data_, stage_config);

    const std::uint64_t stage_fault_seed = derive_seed(config_.fault_seed, stage);

    TrainHooks hooks;
    hooks.before_forward = [this, &session, fault_model, stage_fault_seed](int epoch,
                                                                           std::int64_t iter) {
      // kPerEpoch: same RNG seed for every iteration of an epoch -> identical
      // fault positions, matching Algorithm 1's per-epoch Apply_Fault.
      const std::uint64_t draw =
          config_.refresh == FaultRefresh::kPerEpoch
              ? derive_seed(stage_fault_seed, static_cast<std::uint64_t>(epoch))
              : derive_seed(stage_fault_seed,
                            (static_cast<std::uint64_t>(epoch) << 32) ^
                                static_cast<std::uint64_t>(iter));
      Rng rng(draw);
      session.inject(fault_model, config_.injector, rng);
    };
    hooks.after_backward = [this, &session, &rate_sum, &rate_count](int, std::int64_t) {
      if (!session.injected()) return;
      if (config_.grad_mode == GradMode::kMasked) {
        const auto& params = session.faulted_params();
        const auto& masks = session.hit_masks();
        for (std::size_t k = 0; k < params.size(); ++k) {
          float* g = params[k]->grad.data();
          const float* hit = masks[k].data();
          for (std::int64_t i = 0; i < params[k]->grad.numel(); ++i) {
            if (hit[i] != 0.0f) g[i] = 0.0f;
          }
        }
      }
      rate_sum += session.stats().cell_fault_rate();
      ++rate_count;
      session.restore();  // optimizer step must see clean weights
    };
    trainer.set_hooks(hooks);

    if (config_.base.verbose) {
      log_info("FT stage %zu/%zu: P_sa=%.4f, %d epochs", stage + 1, num_stages, p_sa,
               epochs_per_stage);
    }

    std::vector<float> stage_losses;
    int first_epoch = 0;
    if (restore != nullptr && stage == start_stage && start_epoch > 0) {
      // Mid-stage resume: this Trainer (and its optimizer and loader) stands
      // in for the one the killed run built, so its cross-epoch mutable
      // state — momentum buffers and the augmentation RNG — must be restored.
      // At a stage boundary all three are built fresh, exactly like here.
      trainer.optimizer().load_state(restore->optimizer);
      const RngState* augment_state = nullptr;
      for (const auto& [name, state] : restore->rng_streams) {
        if (name == kAugmentRngStream) augment_state = &state;
      }
      if (augment_state == nullptr) {
        throw CheckpointError(CheckpointErrorKind::kStateMismatch, "RNGS",
                              "mid-stage checkpoint lacks the '" +
                                  std::string(kAugmentRngStream) + "' stream");
      }
      trainer.loader().set_augment_rng_state(*augment_state);
      stage_losses = restore->epoch_losses[stage];
      first_epoch = start_epoch;
    }

    Timer timer;
    for (int e = first_epoch; e < epochs_per_stage; ++e) {
      const int global_epoch = static_cast<int>(stage) * epochs_per_stage + e;
      const float loss = trainer.run_epoch(global_epoch, total_epochs);
      stage_losses.push_back(loss);
      if (config_.base.verbose) {
        log_info("epoch %d/%d loss=%.4f lr=%.4f (%.1fs)", global_epoch + 1, total_epochs, loss,
                 trainer.optimizer().lr(), timer.seconds());
      }

      const int completed = global_epoch + 1;
      if (checkpoints_on &&
          (completed % ckpt_config.every_epochs == 0 || completed == total_epochs)) {
        TrainingCheckpoint ckpt;
        ckpt.config_echo = config_echo;
        const bool stage_done = e + 1 == epochs_per_stage;
        ckpt.next_stage = static_cast<std::uint32_t>(stage) + (stage_done ? 1u : 0u);
        ckpt.next_epoch = stage_done ? 0u : static_cast<std::uint32_t>(e + 1);
        ckpt.rate_sum = rate_sum;
        ckpt.rate_count = rate_count;
        ckpt.stage_rates = stage_rates_;
        ckpt.epoch_losses = completed_losses;
        ckpt.epoch_losses.push_back(stage_losses);
        ckpt.model = state_dict_of(model_);
        if (!stage_done) {
          // A stage boundary builds a fresh optimizer and loader, so there is
          // nothing to carry; mid-stage, both must survive the crash.
          ckpt.optimizer = trainer.optimizer().state_dict();
          ckpt.rng_streams.emplace_back(kAugmentRngStream, trainer.loader().augment_rng_state());
        }
        const std::string path =
            (std::filesystem::path(ckpt_config.dir) / checkpoint_filename(completed)).string();
        save_training_checkpoint(ckpt, path);
        const double metric = ckpt_config.metric ? ckpt_config.metric(model_)
                                                 : -static_cast<double>(loss);
        retention.admit(path, metric);
        if (config_.base.verbose) {
          log_info("checkpoint saved: %s (metric=%.4f)", path.c_str(), metric);
        }
      }
    }

    completed_losses.push_back(stage_losses);
    stats.stage_stats.push_back(TrainStats{std::move(stage_losses)});
  }

  stats.mean_cell_fault_rate = rate_count > 0 ? rate_sum / static_cast<double>(rate_count) : 0.0;
  return stats;
}

}  // namespace ftpim
