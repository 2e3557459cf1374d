// Sequential container: forward runs children in order, backward in reverse.
#pragma once

#include <memory>
#include <vector>

#include "src/nn/module.hpp"

namespace ftpim {

class Sequential final : public Module {
 public:
  Sequential() = default;

  /// Deep copy: every child is clone()d, so the copy shares no storage or
  /// caches with `other` (same contract as Module::clone()). This is the one
  /// copyable Module — it is the repo's model type, and value copies are what
  /// per-worker evaluation and harness model cloning build on.
  Sequential(const Sequential& other);

  /// Appends a child module; returns a reference for chaining.
  Sequential& add(std::unique_ptr<Module> child);

  template <typename M, typename... Args>
  M& emplace(Args&&... args) {
    auto child = std::make_unique<M>(std::forward<Args>(args)...);
    M& ref = *child;
    add(std::move(child));
    return ref;
  }

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void visit(ModuleWalk& walk) override;  ///< children named "0", "1", ...
  [[nodiscard]] std::unique_ptr<Module> clone() const override;
  [[nodiscard]] std::string type_name() const override { return "Sequential"; }

  [[nodiscard]] std::size_t size() const noexcept { return children_.size(); }
  [[nodiscard]] Module& child(std::size_t i) { return *children_.at(i); }

 private:
  std::vector<std::unique_ptr<Module>> children_;
};

}  // namespace ftpim
