// Pooling layers and the NCHW->NC flatten used before the classifier head.
#pragma once

#include <vector>

#include "src/nn/module.hpp"

namespace ftpim {

/// Global average pooling: [N,C,H,W] -> [N,C].
class GlobalAvgPool final : public Module {
 public:
  GlobalAvgPool() = default;
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::unique_ptr<Module> clone() const override;
  [[nodiscard]] std::string type_name() const override { return "GlobalAvgPool"; }

 private:
  Shape cached_in_shape_;
};

/// 2x2 max pooling with stride 2: [N,C,H,W] -> [N,C,H/2,W/2]. Each window
/// starts at -inf and its first maximum (row-major) wins.
class MaxPool2d final : public Module {
 public:
  MaxPool2d() = default;
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::unique_ptr<Module> clone() const override;
  [[nodiscard]] std::string type_name() const override { return "MaxPool2d"; }

 private:
  Shape cached_in_shape_;
  std::vector<std::int64_t> cached_argmax_;
};

/// [N,C,H,W] -> [N, C*H*W].
class Flatten final : public Module {
 public:
  Flatten() = default;
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::unique_ptr<Module> clone() const override;
  [[nodiscard]] std::string type_name() const override { return "Flatten"; }

 private:
  Shape cached_in_shape_;
};

}  // namespace ftpim
