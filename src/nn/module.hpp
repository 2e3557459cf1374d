// Layer/module abstraction with explicit forward/backward.
//
// ftpim uses manual backprop over a static module graph (Sequential +
// Residual) rather than a tape autograd: the model zoo is ResNet-style, the
// graph never changes shape, and explicit backward keeps every kernel
// inspectable — which matters when fault injection rewrites weights between
// forward passes.
//
// Contract:
//   * forward(x, training) caches whatever backward needs.
//   * backward(grad_out) ACCUMULATES into param .grad and returns grad wrt
//     the forward input. Call zero_grad() between steps.
//   * visit() is a module's one tree method: a container names its direct
//     children, a leaf lists its own params and buffers under local names.
//     ModuleWalk joins the names with '.' and yields the parameters, the
//     buffers and the modules_of pre-order. It writes nothing into the
//     model, so concurrent walks of one shared model only read it.
//   * The weights that live on ReRAM crossbars are the CrossbarLayer weights
//     (crossbar_layer.hpp) — fault injection and pruning apply to exactly
//     that set.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/tensor/param.hpp"
#include "src/tensor/serialize.hpp"
#include "src/tensor/tensor.hpp"

namespace ftpim {

class CrossbarLayer;
class Module;

/// The one tree walk (see the contract above): joins the local names that
/// Module::visit lists with '.' ("3.main.0.weight"), parents before children.
class ModuleWalk {
 public:
  explicit ModuleWalk(Module& root);

  void child(const std::string& name, Module& module);
  void param(const char* name, Param& p) { params.push_back({prefix_ + name, &p}); }
  void buffer(const char* name, Tensor& tensor) { buffers.emplace_back(prefix_ + name, &tensor); }

  std::vector<Module*> modules;  ///< pre-order, root first
  std::vector<NamedParam> params;
  std::vector<std::pair<std::string, Tensor*>> buffers;

 private:
  std::string prefix_;
};

class Module {
 public:
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Computes the layer output; `training` selects batch statistics vs
  /// running statistics etc. Must be called before backward().
  virtual Tensor forward(const Tensor& input, bool training) = 0;

  /// Propagates gradients; accumulates parameter grads; returns grad wrt the
  /// most recent forward() input.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// The module's one tree method: lists its direct children (a container)
  /// or its own params and buffers (a leaf) to `walk`, in forward order. The
  /// default lists nothing: a leaf without state.
  virtual void visit(ModuleWalk& walk) { (void)walk; }

  /// Appends this module and every descendant, parents before children, in
  /// forward order (the modules_of walk).
  void collect_modules(std::vector<Module*>& out);

  /// Deep copy: same architecture with parameter values and buffers (e.g. BN
  /// running stats) copied into fresh, disjoint storage. Gradients are zeroed
  /// and activation/backward caches are NOT carried over — the clone behaves
  /// as if freshly constructed and loaded from this module's state dict.
  /// Clones share no mutable state with the source, so each can run
  /// forward/backward (and be fault-injected) on its own thread concurrently.
  [[nodiscard]] virtual std::unique_ptr<Module> clone() const = 0;

  /// Short type tag for debugging ("Conv2d", "ReLU", ...).
  [[nodiscard]] virtual std::string type_name() const = 0;

 protected:
  Module() = default;
};

// --- whole-network helpers ---------------------------------------------------

/// All parameters of `root` with their hierarchical names
/// ("3.main.0.weight"), in walk order.
std::vector<NamedParam> named_parameters_of(Module& root);

/// All parameters of `root`, in walk order.
std::vector<Param*> parameters_of(Module& root);

/// Flat pre-order walk of the module tree (root first).
std::vector<Module*> modules_of(Module& root);

/// The CrossbarLayers (crossbar_layer.hpp) of modules_of(root), in
/// pre-order: the one way to find the layers whose weights live on crossbar
/// cells.
std::vector<CrossbarLayer*> crossbar_layers(Module& root);

/// The weights of crossbar_layers(root), in the same order: the weights
/// that fault injection, variation and pruning act on. Weight i of this
/// concatenated walk owns model cells 2i and 2i+1 — the model-cell
/// convention that fault injection, the int8 deployment and every die share.
std::vector<Param*> crossbar_params(Module& root);

/// Zeroes every parameter gradient.
void zero_grads(Module& root);

/// Total trainable element count.
std::int64_t parameter_count(Module& root);

/// Serializes parameter values and buffers into a StateDict.
StateDict state_dict_of(Module& root);

/// Loads matching entries from `state` into `root`'s params/buffers.
/// Throws std::runtime_error on missing entries or shape mismatches; every
/// entry is checked before any is written, so a refused state leaves `root`
/// unchanged.
void load_state_dict_into(Module& root, const StateDict& state);

}  // namespace ftpim
