// Layer-level unit tests: known-value forwards plus finite-difference
// gradient checks for every layer type (the backbone correctness evidence
// for the manual-backprop engine).
#include <gtest/gtest.h>

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

constexpr double kGradTol = 2e-2;  // float32 central differences

TEST(Linear, ForwardKnownValues) {
  Rng rng(1);
  Linear layer(2, 2, rng, /*with_bias=*/true);
  layer.weight().value = Tensor(Shape{2, 2}, std::vector<float>{1, 2, 3, 4});
  layer.bias().value = Tensor(Shape{2}, std::vector<float>{0.5f, -0.5f});
  const Tensor x(Shape{1, 2}, std::vector<float>{1, 1});
  const Tensor y = layer.forward(x, false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 3.5f);   // 1*1+2*1+0.5
  EXPECT_FLOAT_EQ(y.at(0, 1), 6.5f);   // 3*1+4*1-0.5
}

TEST(Linear, GradientsMatchNumeric) {
  Rng rng(2);
  Linear layer(5, 3, rng);
  const Tensor x = random_tensor(Shape{4, 5}, 3);
  EXPECT_LT(check_input_gradient(layer, x, 10), kGradTol);
  EXPECT_LT(check_param_gradients(layer, x, 11), kGradTol);
}

TEST(Linear, RejectsBadInput) {
  Rng rng(3);
  Linear layer(4, 2, rng);
  EXPECT_THROW(layer.forward(Tensor(Shape{2, 5}), false), std::invalid_argument);
  EXPECT_THROW(Linear(0, 2, rng), std::invalid_argument);
}

TEST(Linear, BackwardWithoutForwardThrows) {
  Rng rng(4);
  Linear layer(2, 2, rng);
  EXPECT_THROW(layer.backward(Tensor(Shape{1, 2})), std::logic_error);
}

TEST(Conv2d, MatchesDirectConvolution) {
  Rng rng(5);
  Conv2d conv(1, 1, 3, 1, 1, rng);
  conv.weight().value.fill(1.0f);  // box filter
  Tensor x(Shape{1, 1, 3, 3}, 1.0f);
  const Tensor y = conv.forward(x, false);
  // Center sees all 9 ones; corners see 4; edges see 6.
  EXPECT_FLOAT_EQ(y.at(0, 0, 1, 1), 9.0f);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 4.0f);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 1), 6.0f);
}

TEST(Conv2d, StrideTwoHalvesResolution) {
  Rng rng(6);
  Conv2d conv(2, 4, 3, 2, 1, rng);
  const Tensor x = random_tensor(Shape{2, 2, 8, 8}, 7);
  const Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{2, 4, 4, 4}));
}

TEST(Conv2d, GradientsMatchNumeric) {
  Rng rng(8);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  const Tensor x = random_tensor(Shape{2, 2, 4, 4}, 9);
  EXPECT_LT(check_input_gradient(conv, x, 12), kGradTol);
  EXPECT_LT(check_param_gradients(conv, x, 13), kGradTol);
}

TEST(Conv2d, StridedGradientsMatchNumeric) {
  Rng rng(14);
  Conv2d conv(2, 2, 3, 2, 1, rng);
  const Tensor x = random_tensor(Shape{1, 2, 6, 6}, 15);
  EXPECT_LT(check_input_gradient(conv, x, 16), kGradTol);
  EXPECT_LT(check_param_gradients(conv, x, 17), kGradTol);
}

TEST(BatchNorm2d, NormalizesBatchStatistics) {
  BatchNorm2d bn(3);
  const Tensor x = random_tensor(Shape{8, 3, 4, 4}, 18, 3.0f);
  const Tensor y = bn.forward(x, true);
  // Per channel: mean ~0, var ~1.
  const std::int64_t plane = 16;
  for (std::int64_t c = 0; c < 3; ++c) {
    double sum = 0.0, sq = 0.0;
    for (std::int64_t n = 0; n < 8; ++n) {
      for (std::int64_t p = 0; p < plane; ++p) {
        const float v = y.data()[(n * 3 + c) * plane + p];
        sum += v;
        sq += static_cast<double>(v) * v;
      }
    }
    const double count = 8.0 * plane;
    EXPECT_NEAR(sum / count, 0.0, 1e-4);
    EXPECT_NEAR(sq / count, 1.0, 1e-2);
  }
}

TEST(BatchNorm2d, EvalUsesRunningStats) {
  BatchNorm2d bn(2);
  // Train on a few batches to populate running stats.
  for (int i = 0; i < 20; ++i) {
    (void)bn.forward(random_tensor(Shape{4, 2, 3, 3}, 100 + i, 2.0f), true);
  }
  // Eval output on a constant input must use running (not batch) stats: a
  // constant batch has zero variance, which would explode without them.
  const Tensor x(Shape{2, 2, 3, 3}, 1.5f);
  const Tensor y = bn.forward(x, false);
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(y[i]));
    EXPECT_LT(std::fabs(y[i]), 10.0f);
  }
}

TEST(BatchNorm2d, GradientsMatchNumeric) {
  BatchNorm2d bn(2);
  const Tensor x = random_tensor(Shape{3, 2, 2, 2}, 19);
  EXPECT_LT(check_input_gradient(bn, x, 20), kGradTol);
  EXPECT_LT(check_param_gradients(bn, x, 21), kGradTol);
}

TEST(ReLU, ForwardAndGradient) {
  ReLU relu;
  const Tensor x = Tensor::from_vector({-1.0f, 0.0f, 2.0f});
  const Tensor y = relu.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  const Tensor g = relu.backward(Tensor::from_vector({5.0f, 5.0f, 5.0f}));
  EXPECT_FLOAT_EQ(g[0], 0.0f);
  EXPECT_FLOAT_EQ(g[1], 0.0f);
  EXPECT_FLOAT_EQ(g[2], 5.0f);
}

TEST(Tanh, GradientMatchesNumeric) {
  Tanh tanh_layer;
  const Tensor x = random_tensor(Shape{40}, 24, 0.5f);
  EXPECT_LT(check_input_gradient(tanh_layer, x, 25), kGradTol);
}

TEST(GlobalAvgPool, ForwardAndGradient) {
  GlobalAvgPool pool;
  Tensor x(Shape{1, 2, 2, 2});
  for (std::int64_t i = 0; i < 8; ++i) x[i] = static_cast<float>(i);
  const Tensor y = pool.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(y.at(0, 0), 1.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 5.5f);
  EXPECT_LT(check_input_gradient(pool, x, 26), kGradTol);
}

TEST(MaxPool2d, ForwardSelectsMaxima) {
  MaxPool2d pool;
  Tensor x(Shape{1, 1, 2, 2}, std::vector<float>{1, 7, 3, 2});
  const Tensor y = pool.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 7.0f);
  // An odd side drops its last row/column; a side below 2 has no window and
  // must not be read past.
  EXPECT_EQ(pool.forward(Tensor(Shape{1, 1, 3, 5}), false).shape(), (Shape{1, 1, 1, 2}));
  EXPECT_THROW((void)pool.forward(Tensor(Shape{1, 1, 1, 4}), false), std::invalid_argument);
}

TEST(MaxPool2d, GradientRoutesToArgmax) {
  MaxPool2d pool;
  Tensor x(Shape{1, 1, 2, 2}, std::vector<float>{1, 7, 3, 2});
  (void)pool.forward(x, true);
  const Tensor g = pool.backward(Tensor(Shape{1, 1, 1, 1}, std::vector<float>{4.0f}));
  EXPECT_FLOAT_EQ(g[1], 4.0f);
  EXPECT_FLOAT_EQ(g[0] + g[2] + g[3], 0.0f);
}

TEST(Flatten, RoundTripsShape) {
  Flatten flat;
  const Tensor x = random_tensor(Shape{2, 3, 4, 4}, 27);
  const Tensor y = flat.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{2, 48}));
  const Tensor g = flat.backward(y);
  EXPECT_EQ(g.shape(), x.shape());
}

TEST(Sequential, ComposesAndCollectsParams) {
  Rng rng(28);
  Sequential net;
  net.emplace<Linear>(4, 8, rng);
  net.emplace<ReLU>();
  net.emplace<Linear>(8, 2, rng);
  const Tensor x = random_tensor(Shape{3, 4}, 29);
  EXPECT_EQ(net.forward(x, false).shape(), (Shape{3, 2}));
  const auto params = named_parameters_of(net);
  ASSERT_EQ(params.size(), 4u);  // two weights, two biases
  EXPECT_EQ(params[0].name, "0.weight");
  EXPECT_EQ(params[2].name, "2.weight");
}

TEST(Sequential, GradientsThroughStack) {
  Rng rng(30);
  Sequential net;
  net.emplace<Linear>(4, 6, rng);
  net.emplace<Tanh>();
  net.emplace<Linear>(6, 3, rng);
  const Tensor x = random_tensor(Shape{2, 4}, 31, 0.5f);
  EXPECT_LT(check_input_gradient(net, x, 32), kGradTol);
  EXPECT_LT(check_param_gradients(net, x, 33), kGradTol);
}

TEST(ResidualBlock, IdentityShortcutShapes) {
  Rng rng(34);
  ResidualBlock block(4, 4, 1, rng);
  const Tensor x = random_tensor(Shape{2, 4, 6, 6}, 35);
  EXPECT_EQ(block.forward(x, false).shape(), x.shape());
}

TEST(ResidualBlock, DownsampleShortcutShapes) {
  Rng rng(36);
  ResidualBlock block(4, 8, 2, rng);
  const Tensor x = random_tensor(Shape{2, 4, 6, 6}, 37);
  EXPECT_EQ(block.forward(x, false).shape(), (Shape{2, 8, 3, 3}));
}

TEST(ResidualBlock, RejectsChannelChangeWithoutStride) {
  Rng rng(38);
  EXPECT_THROW(ResidualBlock(4, 8, 1, rng), std::invalid_argument);
  EXPECT_THROW(ResidualBlock(4, 8, 3, rng), std::invalid_argument);
}

TEST(ResidualBlock, GradientsMatchNumeric) {
  Rng rng(39);
  ResidualBlock block(2, 2, 1, rng);
  const Tensor x = random_tensor(Shape{2, 2, 4, 4}, 40);
  // Smaller eps than the default: the block has two ReLUs and eps=1e-2
  // central differences cross activation kinks on this input.
  EXPECT_LT(check_input_gradient(block, x, 41, 3e-3f), kGradTol);
  EXPECT_LT(check_param_gradients(block, x, 42, 3e-3f), kGradTol);
}

TEST(ResidualBlock, DownsampleGradientsMatchNumeric) {
  Rng rng(43);
  ResidualBlock block(2, 4, 2, rng);
  const Tensor x = random_tensor(Shape{1, 2, 4, 4}, 44);
  EXPECT_LT(check_input_gradient(block, x, 45), kGradTol);
  EXPECT_LT(check_param_gradients(block, x, 46), kGradTol);
}

TEST(Module, StateDictRoundTrip) {
  Rng rng(47);
  Sequential net;
  net.emplace<Conv2d>(2, 3, 3, 1, 1, rng);
  net.emplace<BatchNorm2d>(3);
  net.emplace<ReLU>();
  (void)net.forward(random_tensor(Shape{2, 2, 4, 4}, 48), true);  // touch BN stats

  const StateDict state = state_dict_of(net);
  EXPECT_TRUE(state.count("0.weight"));
  EXPECT_TRUE(state.count("1.gamma"));
  EXPECT_TRUE(state.count("1.running_mean"));

  Rng rng2(999);
  Sequential other;
  other.emplace<Conv2d>(2, 3, 3, 1, 1, rng2);
  other.emplace<BatchNorm2d>(3);
  other.emplace<ReLU>();
  load_state_dict_into(other, state);
  const Tensor x = random_tensor(Shape{1, 2, 4, 4}, 49);
  EXPECT_TRUE(other.forward(x, false).allclose(net.forward(x, false)));
}

TEST(Module, LoadStateDictValidates) {
  Rng rng(50);
  Sequential net;
  net.emplace<Linear>(2, 2, rng);
  StateDict missing;
  EXPECT_THROW(load_state_dict_into(net, missing), std::runtime_error);
  StateDict wrong_shape;
  wrong_shape.emplace("0.weight", Tensor(Shape{3, 3}));
  wrong_shape.emplace("0.bias", Tensor(Shape{2}));
  EXPECT_THROW(load_state_dict_into(net, wrong_shape), std::runtime_error);
}

TEST(Module, ParameterCountAndZeroGrads) {
  Rng rng(51);
  Sequential net;
  net.emplace<Linear>(3, 4, rng);  // 12 + 4
  net.emplace<Linear>(4, 2, rng);  // 8 + 2
  EXPECT_EQ(parameter_count(net), 26);
  const Tensor x = random_tensor(Shape{2, 3}, 52);
  (void)net.forward(x, true);
  (void)net.backward(random_tensor(Shape{2, 2}, 53));
  zero_grads(net);
  for (const Param* p : parameters_of(net)) {
    for (std::int64_t i = 0; i < p->grad.numel(); ++i) EXPECT_EQ(p->grad[i], 0.0f);
  }
}

}  // namespace
}  // namespace ftpim
