// Base training loop: SGD + cosine LR + augmentation, with per-iteration and
// per-epoch hooks that the fault-tolerant trainer and the ADMM pruner attach
// to. Matches the paper's recipe (SGD momentum, initial LR 0.1, cosine
// schedule) at configurable scale.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "src/data/dataloader.hpp"
#include "src/data/dataset.hpp"
#include "src/nn/loss.hpp"
#include "src/nn/module.hpp"
#include "src/optim/sgd.hpp"

namespace ftpim {

struct TrainHooks {
  /// Called before each forward pass; may mutate model weights (fault
  /// injection). Arguments: (epoch, iteration-within-epoch).
  std::function<void(int, std::int64_t)> before_forward;
  /// Called after backward with grads accumulated, before the optimizer step.
  std::function<void(int, std::int64_t)> after_backward;
  /// Called at the end of each epoch with the mean training loss.
  std::function<void(int, float)> after_epoch;
};

struct TrainConfig {
  int epochs = 4;
  std::int64_t batch_size = 64;
  SgdConfig sgd{.lr = 0.1f, .momentum = 0.9f, .weight_decay = 5e-4f, .grad_clip = 5.0f};
  bool cosine_lr = true;       ///< else constant at sgd.lr
  AugmentConfig augment{.crop_pad = 2, .hflip = true, .enabled = true};
  std::uint64_t seed = 1234;
  bool verbose = false;
};

struct TrainStats {
  std::vector<float> epoch_losses;
};

class Trainer {
 public:
  /// `model` and `train_data` must outlive the trainer.
  Trainer(Module& model, const Dataset& train_data, TrainConfig config);

  void set_hooks(TrainHooks hooks) { hooks_ = std::move(hooks); }
  [[nodiscard]] Sgd& optimizer() noexcept { return *optimizer_; }
  /// Exposed for checkpoint/resume: the loader's augmentation Rng is part of
  /// the training state a mid-run checkpoint must capture.
  [[nodiscard]] DataLoader& loader() noexcept { return loader_; }
  [[nodiscard]] const TrainConfig& config() const noexcept { return config_; }

  /// Runs the full schedule. `epoch_offset`/`total_epochs` let multi-stage
  /// callers (progressive FT training) share one cosine schedule across
  /// stages; defaults cover the single-stage case.
  TrainStats run(int epoch_offset = 0, int total_epochs = -1);

  /// Runs one epoch (0-based global epoch index for the LR schedule);
  /// returns the mean loss.
  float run_epoch(int epoch, int total_epochs);

 private:
  Module& model_;
  const Dataset& train_data_;
  TrainConfig config_;
  DataLoader loader_;
  SoftmaxCrossEntropy loss_;
  std::unique_ptr<Sgd> optimizer_;
  TrainHooks hooks_;
};

}  // namespace ftpim
