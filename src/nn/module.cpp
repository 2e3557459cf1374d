#include "src/nn/module.hpp"

#include <stdexcept>

namespace ftpim {

ModuleWalk::ModuleWalk(Module& root) : modules{&root} { root.visit(*this); }

void ModuleWalk::child(const std::string& name, Module& module) {
  const std::size_t parent_len = prefix_.size();
  prefix_ += name + ".";
  modules.push_back(&module);
  module.visit(*this);
  prefix_.resize(parent_len);
}

namespace {

/// Pairs each param value and buffer of `root` with its entry in `state`,
/// throwing on the first missing or misshaped entry before the caller
/// writes any.
std::vector<std::pair<Tensor*, const Tensor*>> match_state(Module& root,
                                                           const StateDict& state) {
  const ModuleWalk walk(root);
  std::vector<std::pair<Tensor*, const Tensor*>> pairs;
  const auto match = [&](const std::string& name, Tensor& tensor) {
    const auto it = state.find(name);
    if (it == state.end()) {
      throw std::runtime_error("load_state_dict: missing entry '" + name + "'");
    }
    if (it->second.shape() != tensor.shape()) {
      throw std::runtime_error("load_state_dict: shape mismatch for '" + name + "': " +
                               shape_to_string(it->second.shape()) + " vs " +
                               shape_to_string(tensor.shape()));
    }
    pairs.emplace_back(&tensor, &it->second);
  };
  for (const auto& [name, p] : walk.params) match(name, p->value);
  for (const auto& [name, buffer] : walk.buffers) match(name, *buffer);
  return pairs;
}

}  // namespace

void Module::collect_modules(std::vector<Module*>& out) {
  const ModuleWalk walk(*this);
  out.insert(out.end(), walk.modules.begin(), walk.modules.end());
}

std::vector<NamedParam> named_parameters_of(Module& root) { return ModuleWalk(root).params; }

std::vector<Param*> parameters_of(Module& root) {
  std::vector<Param*> params;
  for (const NamedParam& p : named_parameters_of(root)) params.push_back(p.param);
  return params;
}

std::vector<Module*> modules_of(Module& root) { return ModuleWalk(root).modules; }

void zero_grads(Module& root) {
  for (Param* p : parameters_of(root)) p->grad.zero();
}

std::int64_t parameter_count(Module& root) {
  std::int64_t n = 0;
  for (const Param* p : parameters_of(root)) n += p->value.numel();
  return n;
}

StateDict state_dict_of(Module& root) {
  const ModuleWalk walk(root);
  StateDict state;
  for (const auto& [name, p] : walk.params) state.emplace(name, p->value);
  for (const auto& [name, buffer] : walk.buffers) state.emplace(name, *buffer);
  return state;
}

void load_state_dict_into(Module& root, const StateDict& state) {
  for (const auto& [dst, src] : match_state(root, state)) *dst = *src;
}

}  // namespace ftpim
