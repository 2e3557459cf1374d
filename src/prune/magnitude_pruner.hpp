// One-shot magnitude pruning (Han et al., NeurIPS 2015).
//
// Zeroes the smallest-magnitude weights to reach a target sparsity, either
// globally across all prunable tensors (one threshold) or per layer (uniform
// sparsity in every tensor). Returns the keep-masks so the fine-tuning
// optimizer can freeze pruned positions (Sgd::set_mask).
#pragma once

#include <vector>

#include "src/nn/module.hpp"
#include "src/prune/sparsity.hpp"

namespace ftpim {

enum class PruneScope { kGlobal, kPerLayer };

struct MagnitudePruneConfig {
  double sparsity = 0.5;  ///< fraction of weights to remove, in [0,1)
  PruneScope scope = PruneScope::kGlobal;
};

/// Prunes in place and returns the masks (parallel to crossbar_params(root)).
std::vector<PruneMask> magnitude_prune(Module& root, const MagnitudePruneConfig& config);

}  // namespace ftpim
