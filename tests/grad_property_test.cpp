// Property-style parameterized gradient checks: every (layer, geometry)
// combination in the sweep must pass finite-difference verification. This is
// the broad-coverage companion to the targeted checks in nn_layers_test.
#include <gtest/gtest.h>

#include <memory>

#include "src/nn/activations.hpp"
#include "src/nn/batchnorm2d.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/linear.hpp"
#include "src/nn/pooling.hpp"
#include "src/nn/residual.hpp"
#include "src/nn/sequential.hpp"
#include "test_util.hpp"

namespace ftpim {
namespace {

using testing::check_input_gradient;
using testing::check_param_gradients;
using testing::random_tensor;

constexpr double kTol = 2e-2;
constexpr float kEps = 3e-3f;  // small enough to dodge ReLU kinks

struct ConvCase {
  std::int64_t in_c, out_c, kernel, stride, pad, img;
};

class ConvGradTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGradTest, InputAndParamGradients) {
  const ConvCase c = GetParam();
  Rng rng(1);
  Conv2d conv(c.in_c, c.out_c, c.kernel, c.stride, c.pad, rng, /*with_bias=*/true);
  const Tensor x = random_tensor(Shape{2, c.in_c, c.img, c.img}, 2);
  EXPECT_LT(check_input_gradient(conv, x, 3, kEps), kTol);
  EXPECT_LT(check_param_gradients(conv, x, 4, kEps), kTol);
}

INSTANTIATE_TEST_SUITE_P(Geometries, ConvGradTest,
                         ::testing::Values(ConvCase{1, 1, 1, 1, 0, 4},   // pointwise
                                           ConvCase{2, 3, 3, 1, 1, 5},   // same-pad
                                           ConvCase{3, 2, 3, 2, 1, 6},   // strided
                                           ConvCase{2, 2, 5, 1, 2, 7},   // 5x5
                                           ConvCase{1, 4, 3, 1, 0, 5},   // valid
                                           ConvCase{4, 1, 2, 2, 0, 6})); // even kernel

struct LinearCase {
  std::int64_t in, out, batch;
};

class LinearGradTest : public ::testing::TestWithParam<LinearCase> {};

TEST_P(LinearGradTest, InputAndParamGradients) {
  const LinearCase c = GetParam();
  Rng rng(5);
  Linear layer(c.in, c.out, rng, /*with_bias=*/true);
  const Tensor x = random_tensor(Shape{c.batch, c.in}, 6);
  EXPECT_LT(check_input_gradient(layer, x, 7, kEps), kTol);
  EXPECT_LT(check_param_gradients(layer, x, 8, kEps), kTol);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LinearGradTest,
                         ::testing::Values(LinearCase{1, 1, 1}, LinearCase{7, 3, 5},
                                           LinearCase{16, 16, 2}, LinearCase{3, 11, 8}));

struct BnCase {
  std::int64_t channels, batch, side;
};

class BatchNormGradTest : public ::testing::TestWithParam<BnCase> {};

TEST_P(BatchNormGradTest, InputAndParamGradients) {
  const BnCase c = GetParam();
  BatchNorm2d bn(c.channels);
  const Tensor x = random_tensor(Shape{c.batch, c.channels, c.side, c.side}, 9, 1.5f);
  EXPECT_LT(check_input_gradient(bn, x, 10, kEps), kTol);
  EXPECT_LT(check_param_gradients(bn, x, 11, kEps), kTol);
}

INSTANTIATE_TEST_SUITE_P(Shapes, BatchNormGradTest,
                         ::testing::Values(BnCase{1, 4, 3}, BnCase{3, 2, 4}, BnCase{5, 3, 2}));

class ResidualGradTest : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(ResidualGradTest, DownsampleVariants) {
  const std::int64_t stride = GetParam();
  Rng rng(12);
  const std::int64_t in_c = 2;
  const std::int64_t out_c = stride == 2 ? 4 : 2;
  ResidualBlock block(in_c, out_c, stride, rng);
  const Tensor x = random_tensor(Shape{1, in_c, 4, 4}, 13);
  EXPECT_LT(check_input_gradient(block, x, 14, kEps), kTol);
  EXPECT_LT(check_param_gradients(block, x, 15, kEps), kTol);
}

INSTANTIATE_TEST_SUITE_P(Strides, ResidualGradTest, ::testing::Values(1, 2));

TEST(CompositeGrad, ConvBnReluPoolLinearStack) {
  Rng rng(16);
  Sequential net;
  net.emplace<Conv2d>(2, 3, 3, 1, 1, rng);
  net.emplace<BatchNorm2d>(3);
  net.emplace<Tanh>();  // smooth activation keeps the check tight
  net.emplace<GlobalAvgPool>();
  net.emplace<Linear>(3, 4, rng);
  const Tensor x = random_tensor(Shape{2, 2, 6, 6}, 17);
  EXPECT_LT(check_input_gradient(net, x, 18, kEps), kTol);
  EXPECT_LT(check_param_gradients(net, x, 19, kEps), kTol);
}

TEST(CompositeGrad, MaxPoolInStack) {
  Rng rng(20);
  Sequential net;
  net.emplace<Conv2d>(1, 2, 3, 1, 1, rng);
  net.emplace<MaxPool2d>(2, 2);
  net.emplace<Flatten>();
  net.emplace<Linear>(2 * 3 * 3, 2, rng);
  const Tensor x = random_tensor(Shape{1, 1, 6, 6}, 21);
  EXPECT_LT(check_input_gradient(net, x, 22, kEps), kTol);
}

}  // namespace
}  // namespace ftpim
