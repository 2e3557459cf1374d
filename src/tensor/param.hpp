// Trainable parameter: a value/grad Tensor pair tagged with where the
// weight physically lives (ReRAM crossbar vs digital periphery).
//
// This lives in the tensor module (not nn) on purpose: optimizers update
// `Param`s and fault injection / pruning select by `ParamKind` without ever
// needing the Module graph, so optim and reram can depend on tensor alone —
// the layering DAG keeps nn/optim/data as independent siblings
// (tools/ftpim_analyze.py enforces it).
//
// A Param carries no name. Hierarchical names are an output of the module
// walk (named_parameters_of in src/nn/module.hpp), never stored, so walking
// a model that other threads share only reads it.
#pragma once

#include <string>
#include <utility>

#include "src/tensor/tensor.hpp"

namespace ftpim {

enum class ParamKind {
  kCrossbarWeight,  ///< mapped onto ReRAM cells: fault-injectable, prunable, weight-decayed
  kBias,            ///< digital peripheral storage: not fault-injected
  kNorm,            ///< batch-norm scale/shift: digital, not fault-injected
};

struct Param {
  Tensor value;
  Tensor grad;
  ParamKind kind = ParamKind::kCrossbarWeight;

  Param(Tensor v, ParamKind k) : value(std::move(v)), grad(value.shape()), kind(k) {}

  /// Copy with the value in fresh storage and a zeroed gradient — what a
  /// Module::clone() needs (grads are per-training-loop state, not weights).
  [[nodiscard]] Param clone_detached() const { return Param(value, kind); }
};

/// A parameter under its hierarchical name, e.g. "3.main.0.weight", as the
/// module walk yields it.
struct NamedParam {
  std::string name;
  Param* param = nullptr;
};

}  // namespace ftpim
