// Batch normalization over NCHW channels, with running statistics for eval.
#pragma once

#include "src/nn/module.hpp"

namespace ftpim {

class BatchNorm2d final : public Module {
 public:
  explicit BatchNorm2d(std::int64_t channels);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void visit(ModuleWalk& walk) override;
  /// Clones gamma/beta and the running statistics (the buffers eval-mode
  /// forward depends on); backward caches are dropped.
  [[nodiscard]] std::unique_ptr<Module> clone() const override;
  [[nodiscard]] std::string type_name() const override { return "BatchNorm2d"; }

  [[nodiscard]] std::int64_t channels() const noexcept { return channels_; }
  [[nodiscard]] const Tensor& running_mean() const noexcept { return running_mean_; }
  [[nodiscard]] const Tensor& running_var() const noexcept { return running_var_; }

 private:
  BatchNorm2d(const BatchNorm2d& other);

  static constexpr float kMomentum = 0.1f, kEps = 1e-5f;  ///< the PyTorch defaults
  std::int64_t channels_;
  Param gamma_, beta_;
  Tensor running_mean_, running_var_;
  // Backward caches (training only).
  Tensor cached_xhat_;
  Tensor cached_inv_std_;  ///< [C]
  std::int64_t cached_n_ = 0, cached_h_ = 0, cached_w_ = 0;
};

}  // namespace ftpim
