#include "src/models/small_cnn.hpp"

#include "src/common/check.hpp"
#include "src/common/rng.hpp"


#include "src/nn/activations.hpp"
#include "src/nn/batchnorm2d.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/linear.hpp"
#include "src/nn/pooling.hpp"

namespace ftpim {

std::unique_ptr<Sequential> make_small_cnn(const SmallCnnConfig& config) {
  FTPIM_CHECK(!(config.image_size % 4 != 0 || config.image_size < 4), "make_small_cnn: image_size must be a positive multiple of 4");
  Rng rng(config.seed);
  auto net = std::make_unique<Sequential>();
  net->emplace<Conv2d>(3, config.width, 3, 1, 1, rng, /*with_bias=*/false);
  net->emplace<BatchNorm2d>(config.width);
  net->emplace<ReLU>();
  net->emplace<MaxPool2d>(2, 2);
  net->emplace<Conv2d>(config.width, config.width * 2, 3, 1, 1, rng, /*with_bias=*/false);
  net->emplace<BatchNorm2d>(config.width * 2);
  net->emplace<ReLU>();
  net->emplace<MaxPool2d>(2, 2);
  net->emplace<Flatten>();
  const std::int64_t spatial = config.image_size / 4;
  net->emplace<Linear>(config.width * 2 * spatial * spatial, config.classes, rng,
                       /*with_bias=*/true);
  return net;
}

}  // namespace ftpim
