#include "src/core/trainer.hpp"

#include "src/common/check.hpp"
#include "src/common/logging.hpp"
#include "src/common/timer.hpp"
#include "src/optim/lr_scheduler.hpp"

namespace ftpim {

Trainer::Trainer(Module& model, const Dataset& train_data, TrainConfig config)
    : model_(model),
      train_data_(train_data),
      config_(config),
      loader_(train_data, config.batch_size, /*shuffle=*/true, config.seed, config.augment) {
  FTPIM_CHECK_GE(config_.epochs, 0, "TrainConfig: epochs");
  optimizer_ = std::make_unique<Sgd>(parameters_of(model_), config_.sgd);
}

float Trainer::run_epoch(int epoch, int total_epochs) {
  optimizer_->set_lr(config_.cosine_lr ? cosine_annealed_lr(config_.sgd.lr, config_.sgd.lr * 1e-3f,
                                                            epoch, total_epochs)
                                       : config_.sgd.lr);
  loader_.start_epoch(epoch);
  const std::int64_t batches = loader_.batches_per_epoch();
  double loss_sum = 0.0;
  std::int64_t samples = 0;
  for (std::int64_t it = 0; it < batches; ++it) {
    const Batch batch = loader_.batch(it);
    if (hooks_.before_forward) hooks_.before_forward(epoch, it);
    zero_grads(model_);
    const Tensor logits = model_.forward(batch.images, /*training=*/true);
    const LossResult lr = loss_.forward(logits, batch.labels);
    model_.backward(lr.grad_logits);
    if (hooks_.after_backward) hooks_.after_backward(epoch, it);
    optimizer_->step();
    loss_sum += static_cast<double>(lr.loss) * static_cast<double>(batch.size());
    samples += batch.size();
  }
  const float mean_loss =
      samples > 0 ? static_cast<float>(loss_sum / static_cast<double>(samples)) : 0.0f;
  if (hooks_.after_epoch) hooks_.after_epoch(epoch, mean_loss);
  return mean_loss;
}

TrainStats Trainer::run(int epoch_offset, int total_epochs) {
  if (total_epochs < 0) total_epochs = config_.epochs;
  TrainStats stats;
  Timer timer;
  for (int e = 0; e < config_.epochs; ++e) {
    const float loss = run_epoch(epoch_offset + e, total_epochs);
    stats.epoch_losses.push_back(loss);
    if (config_.verbose) {
      log_info("epoch %d/%d loss=%.4f lr=%.4f (%.1fs)", epoch_offset + e + 1, total_epochs, loss,
               optimizer_->lr(), timer.seconds());
    }
  }
  return stats;
}

}  // namespace ftpim
