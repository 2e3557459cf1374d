#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/crc32c.hpp"
#include "src/models/mlp.hpp"
#include "src/models/resnet.hpp"
#include "src/models/small_cnn.hpp"
#include "src/optim/sgd.hpp"
#include "test_util.hpp"

namespace ftpim {
namespace {

TEST(ResNet, DepthValidation) {
  EXPECT_THROW(make_resnet(ResNetConfig{.depth = 18}), std::invalid_argument);
  EXPECT_THROW(make_resnet(ResNetConfig{.depth = 7}), std::invalid_argument);
  EXPECT_THROW(make_resnet(ResNetConfig{.depth = 20, .classes = 1}), std::invalid_argument);
  EXPECT_NO_THROW(make_resnet(ResNetConfig{.depth = 8, .base_width = 2}));
}

TEST(ResNet, ForwardShape) {
  auto net = make_resnet20(10, /*base_width=*/4, /*seed=*/1);
  const Tensor x = testing::random_tensor(Shape{2, 3, 16, 16}, 2);
  EXPECT_EQ(net->forward(x, false).shape(), (Shape{2, 10}));
}

TEST(ResNet, WorksAt32px) {
  auto net = make_resnet20(10, 4, 1);
  const Tensor x = testing::random_tensor(Shape{1, 3, 32, 32}, 3);
  EXPECT_EQ(net->forward(x, false).shape(), (Shape{1, 10}));
}

TEST(ResNet, Resnet20HasNineBlocks) {
  auto net = make_resnet20(10, 16, 1);
  // conv+bn+relu + 9 blocks + pool + linear = 14 children.
  EXPECT_EQ(net->size(), 14u);
}

TEST(ResNet, Resnet32HasFifteenBlocks) {
  auto net = make_resnet32(100, 16, 1);
  EXPECT_EQ(net->size(), 20u);
  const Tensor x = testing::random_tensor(Shape{1, 3, 16, 16}, 4);
  EXPECT_EQ(net->forward(x, false).shape(), (Shape{1, 100}));
}

TEST(ResNet, PaperParamCountAtFullWidth) {
  // ResNet-20 width 16 on 10 classes is famously ~0.27M params.
  auto net = make_resnet20(10, 16, 1);
  const std::int64_t n = parameter_count(*net);
  EXPECT_GT(n, 260000);
  EXPECT_LT(n, 280000);
}

TEST(ResNet, TrainBackwardRuns) {
  auto net = make_resnet(ResNetConfig{.depth = 8, .classes = 4, .base_width = 2, .seed = 5});
  const Tensor x = testing::random_tensor(Shape{2, 3, 8, 8}, 6);
  const Tensor y = net->forward(x, true);
  const Tensor g = net->backward(testing::random_tensor(y.shape(), 7));
  EXPECT_EQ(g.shape(), x.shape());
  // Every crossbar weight must receive some gradient signal.
  for (const auto& [name, p] : named_parameters_of(*net)) {
    if (p->kind != ParamKind::kCrossbarWeight) continue;
    double norm = 0.0;
    for (std::int64_t i = 0; i < p->grad.numel(); ++i) {
      norm += std::fabs(p->grad[i]);
    }
    EXPECT_GT(norm, 0.0) << name;
  }
}

TEST(ResNet, DeterministicForSeed) {
  auto a = make_resnet20(10, 4, 77);
  auto b = make_resnet20(10, 4, 77);
  const Tensor x = testing::random_tensor(Shape{1, 3, 8, 8}, 8);
  EXPECT_TRUE(a->forward(x, false).allclose(b->forward(x, false)));
}

TEST(Mlp, ShapeAndDepth) {
  auto net = make_mlp({8, 16, 16, 3}, 1);
  const Tensor x = testing::random_tensor(Shape{5, 8}, 9);
  EXPECT_EQ(net->forward(x, false).shape(), (Shape{5, 3}));
  EXPECT_EQ(net->size(), 5u);  // L R L R L
  EXPECT_THROW(make_mlp({4}, 1), std::invalid_argument);
}

TEST(SmallCnn, ShapeAndValidation) {
  auto net = make_small_cnn(SmallCnnConfig{.image_size = 16, .width = 4, .classes = 7});
  const Tensor x = testing::random_tensor(Shape{2, 3, 16, 16}, 10);
  EXPECT_EQ(net->forward(x, false).shape(), (Shape{2, 7}));
  EXPECT_THROW(make_small_cnn(SmallCnnConfig{.image_size = 10}), std::invalid_argument);
}

TEST(Models, CrossbarWeightTagging) {
  // Conv/linear kernels are crossbar weights; BN params and biases are not —
  // the fault injector and pruners key off this.
  auto net = make_resnet20(10, 4, 1);
  int crossbar = 0, norm = 0, bias = 0;
  for (const Param* p : parameters_of(*net)) {
    switch (p->kind) {
      case ParamKind::kCrossbarWeight: ++crossbar; break;
      case ParamKind::kNorm: ++norm; break;
      case ParamKind::kBias: ++bias; break;
    }
  }
  EXPECT_EQ(crossbar, 20);  // 19 convs + 1 linear
  EXPECT_EQ(norm, 2 * 19);  // gamma+beta per BN
  EXPECT_EQ(bias, 1);       // classifier bias
}

// The walk's names are checkpoint keys: state dicts and Sgd "velocity/<path>"
// moments written by earlier builds must still load. Recorded from the build
// whose layers stored their own names.
std::vector<std::string> keys_of(const StateDict& state) {
  std::vector<std::string> keys;
  for (const auto& [key, tensor] : state) keys.push_back(key);
  return keys;
}

TEST(ModuleWalk, SmallCnnKeysAreTheRecordedOnes) {
  auto net = make_small_cnn(SmallCnnConfig{.image_size = 8, .width = 4, .classes = 4});
  EXPECT_EQ(keys_of(state_dict_of(*net)),
            (std::vector<std::string>{"0.weight", "1.beta", "1.gamma", "1.running_mean",
                                      "1.running_var", "4.weight", "5.beta", "5.gamma",
                                      "5.running_mean", "5.running_var", "9.bias",
                                      "9.weight"}));
  const Sgd sgd(named_parameters_of(*net), SgdConfig{});
  EXPECT_EQ(keys_of(sgd.state_dict()),
            (std::vector<std::string>{"velocity/0.weight", "velocity/1.beta", "velocity/1.gamma",
                                      "velocity/4.weight", "velocity/5.beta", "velocity/5.gamma",
                                      "velocity/9.bias", "velocity/9.weight"}));
}

TEST(ModuleWalk, ResNet20KeyDigestIsTheRecordedOne) {
  auto net = make_resnet20(10, /*base_width=*/8, /*seed=*/1);
  const std::vector<std::string> keys = keys_of(state_dict_of(*net));  // sorted (std::map)
  std::string joined;
  for (const std::string& key : keys) joined += (joined.empty() ? "" : "\n") + key;
  EXPECT_EQ(keys.size(), 97u);
  EXPECT_EQ(crc32c(joined.data(), joined.size()), 0x176066efu);
}

TEST(ModuleWalk, RefusedStateLoadLeavesTheTargetUnchanged) {
  auto net = make_mlp({4, 8, 5}, 1);
  const std::vector<std::uint8_t> before = encode_state_dict(state_dict_of(*net));
  // The head's shape differs; "0.weight" and "0.bias" would fit.
  EXPECT_THROW(load_state_dict_into(*net, state_dict_of(*make_mlp({4, 8, 3}, 2))),
               std::runtime_error);
  StateDict missing = state_dict_of(*make_mlp({4, 8, 5}, 3));
  missing.erase("2.bias");
  EXPECT_THROW(load_state_dict_into(*net, missing), std::runtime_error);
  EXPECT_EQ(encode_state_dict(state_dict_of(*net)), before);
}

}  // namespace
}  // namespace ftpim
