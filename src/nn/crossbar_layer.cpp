#include "src/nn/crossbar_layer.hpp"

#include "src/common/check.hpp"

namespace ftpim {

void CrossbarLayer::set_mvm_hook(std::shared_ptr<const MvmHook> hook) {
  if (hook != nullptr) {
    FTPIM_CHECK(hook->in_features() == weight_.value.dim(1) &&
                    hook->out_features() == weight_.value.dim(0),
                "%s::set_mvm_hook: hook extents [%lld -> %lld] do not match layer "
                "[%lld -> %lld]",
                type_name().c_str(), static_cast<long long>(hook->in_features()),
                static_cast<long long>(hook->out_features()),
                static_cast<long long>(weight_.value.dim(1)),
                static_cast<long long>(weight_.value.dim(0)));
  }
  mvm_hook_ = std::move(hook);
}

std::vector<CrossbarLayer*> crossbar_layers(Module& root) {
  std::vector<CrossbarLayer*> layers;
  for (Module* m : modules_of(root)) {
    if (auto* layer = dynamic_cast<CrossbarLayer*>(m); layer != nullptr) layers.push_back(layer);
  }
  return layers;
}

std::vector<Param*> crossbar_params(Module& root) {
  std::vector<Param*> params;
  for (CrossbarLayer* layer : crossbar_layers(root)) params.push_back(&layer->weight());
  return params;
}

}  // namespace ftpim
