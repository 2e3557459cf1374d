// Known-bad fixture: crossbar layers found by casting outside src/nn/.
// The crossbar-layer-cast rule must flag both casts; the walk in the last
// function is the sanctioned way. NOT COMPILED.
#include "src/nn/conv2d.hpp"
#include "src/nn/linear.hpp"

void bad_hook_walk(ftpim::Module& model) {
  for (ftpim::Module* m : ftpim::modules_of(model)) {
    if (auto* lin = dynamic_cast<Linear*>(m)) lin->set_mvm_hook(nullptr);
    if (auto* conv = dynamic_cast<ftpim::Conv2d*>(m)) conv->set_mvm_hook(nullptr);
  }
}

void good_hook_walk(ftpim::Module& model) {
  for (ftpim::CrossbarLayer* layer : ftpim::crossbar_layers(model)) layer->set_mvm_hook(nullptr);
}
