// Compact CNN (conv-BN-ReLU-pool x2 + classifier) — integration-test model
// and quickstart example network; much cheaper than a ResNet.
#pragma once

#include <cstdint>
#include <memory>

#include "src/nn/sequential.hpp"

namespace ftpim {

/// Input images have 3 channels.
struct SmallCnnConfig {
  std::int64_t image_size = 16;  ///< square input side; must be divisible by 4
  std::int64_t width = 8;
  std::int64_t classes = 10;
  std::uint64_t seed = 1;
};

std::unique_ptr<Sequential> make_small_cnn(const SmallCnnConfig& config);

}  // namespace ftpim
