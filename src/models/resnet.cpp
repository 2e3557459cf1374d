#include "src/models/resnet.hpp"

#include "src/common/check.hpp"
#include "src/common/rng.hpp"


#include "src/nn/activations.hpp"
#include "src/nn/batchnorm2d.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/linear.hpp"
#include "src/nn/pooling.hpp"
#include "src/nn/residual.hpp"

namespace ftpim {

std::unique_ptr<Sequential> make_resnet(const ResNetConfig& config) {
  if (config.depth < 8 || (config.depth - 2) % 6 != 0) {
    throw ContractViolation("make_resnet: depth must be 6n+2, got " +
                                std::to_string(config.depth));
  }
  FTPIM_CHECK(!(config.classes <= 1 || config.base_width <= 0), "make_resnet: invalid classes/base_width");
  const int blocks_per_stage = (config.depth - 2) / 6;
  const std::int64_t w = config.base_width;

  Rng rng(config.seed);
  auto net = std::make_unique<Sequential>();
  net->emplace<Conv2d>(3, w, 3, 1, 1, rng);
  net->emplace<BatchNorm2d>(w);
  net->emplace<ReLU>();

  std::int64_t in_c = w;
  for (int stage = 0; stage < 3; ++stage) {
    const std::int64_t out_c = w << stage;
    for (int b = 0; b < blocks_per_stage; ++b) {
      const std::int64_t stride = (stage > 0 && b == 0) ? 2 : 1;
      net->emplace<ResidualBlock>(in_c, out_c, stride, rng);
      in_c = out_c;
    }
  }
  net->emplace<GlobalAvgPool>();
  net->emplace<Linear>(in_c, config.classes, rng, /*with_bias=*/true);
  return net;
}

std::unique_ptr<Sequential> make_resnet20(std::int64_t classes, std::int64_t base_width,
                                          std::uint64_t seed) {
  return make_resnet(
      ResNetConfig{.depth = 20, .classes = classes, .base_width = base_width, .seed = seed});
}

std::unique_ptr<Sequential> make_resnet32(std::int64_t classes, std::int64_t base_width,
                                          std::uint64_t seed) {
  return make_resnet(
      ResNetConfig{.depth = 32, .classes = classes, .base_width = base_width, .seed = seed});
}

}  // namespace ftpim
