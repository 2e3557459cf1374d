// Elementwise activations.
#pragma once

#include "src/nn/module.hpp"

namespace ftpim {

class ReLU final : public Module {
 public:
  ReLU() = default;
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::unique_ptr<Module> clone() const override;
  [[nodiscard]] std::string type_name() const override { return "ReLU"; }

 private:
  Tensor cached_mask_;  ///< 1 where input > 0 (training only)
};

class Tanh final : public Module {
 public:
  Tanh() = default;
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::unique_ptr<Module> clone() const override;
  [[nodiscard]] std::string type_name() const override { return "Tanh"; }

 private:
  Tensor cached_output_;
};

}  // namespace ftpim
