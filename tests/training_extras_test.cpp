// Additional end-to-end and edge-case coverage: augmentation-enabled
// training, deeper ResNet variants, SynthVision at 100 classes, and evaluator
// edge cases.
#include <gtest/gtest.h>

#include <memory>

#include "src/common/check.hpp"
#include "src/core/evaluator.hpp"
#include "src/core/trainer.hpp"
#include "src/data/synthetic.hpp"
#include "src/models/resnet.hpp"
#include "src/models/small_cnn.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/loss.hpp"
#include "test_util.hpp"

namespace ftpim {
namespace {

std::unique_ptr<InMemoryDataset> vision(std::uint64_t stream, int samples, int classes = 3) {
  SynthVisionConfig cfg;
  cfg.num_classes = classes;
  cfg.image_size = 8;
  cfg.samples = samples;
  cfg.seed = 31;
  cfg.noise_std = 0.3f;
  return make_synthvision(cfg, stream);
}

TEST(Trainer, AugmentationEnabledStillLearns) {
  const auto train = vision(3, 192);
  const auto test = vision(4, 96);
  auto net = make_small_cnn(SmallCnnConfig{.image_size = 8, .width = 4, .classes = 3, .seed = 2});
  TrainConfig tc;
  tc.epochs = 8;
  tc.batch_size = 32;
  tc.sgd.lr = 0.05f;
  tc.augment = AugmentConfig{.crop_pad = 1, .hflip = true, .enabled = true};
  Trainer(*net, *train, tc).run();
  EXPECT_GT(evaluate_accuracy(*net, *test), 0.5);
}

TEST(ResNetVariants, DeeperDepthsConstructAndRun) {
  for (const int depth : {44, 56}) {
    auto net = make_resnet(ResNetConfig{.depth = depth, .classes = 5, .base_width = 2, .seed = 4});
    const Tensor x = testing::random_tensor(Shape{1, 3, 8, 8}, 5);
    EXPECT_EQ(net->forward(x, false).shape(), (Shape{1, 5})) << depth;
  }
}

TEST(SynthVision, HundredClassGeneration) {
  SynthVisionConfig cfg;
  cfg.num_classes = 100;
  cfg.image_size = 8;
  cfg.samples = 300;
  cfg.seed = 6;
  const auto data = make_synthvision(cfg, 1);
  EXPECT_EQ(data->num_classes(), 100);
  std::int64_t max_label = 0;
  for (std::int64_t i = 0; i < data->size(); ++i) {
    max_label = std::max(max_label, data->get(i).label);
  }
  EXPECT_GT(max_label, 50);  // labels actually span the range
}

TEST(Evaluator, EmptyDatasetGivesZero) {
  InMemoryDataset empty(Shape{3, 8, 8}, 3);
  auto net = make_small_cnn(SmallCnnConfig{.image_size = 8, .width = 2, .classes = 3, .seed = 7});
  EXPECT_DOUBLE_EQ(evaluate_accuracy(*net, empty), 0.0);
}

TEST(Evaluator, ZeroRunsGivesEmptyResult) {
  const auto data = vision(6, 16);
  auto net = make_small_cnn(SmallCnnConfig{.image_size = 8, .width = 2, .classes = 3, .seed = 8});
  DefectEvalConfig cfg;
  cfg.num_runs = 0;
  const DefectEvalResult r = evaluate_under_defects(*net, *data, 0.1, cfg);
  EXPECT_TRUE(r.run_accs.empty());
  EXPECT_DOUBLE_EQ(r.mean_acc, 0.0);
}

TEST(Evaluator, NegativeRunsAreAContractViolation) {
  const auto data = vision(6, 16);
  auto net = make_small_cnn(SmallCnnConfig{.image_size = 8, .width = 2, .classes = 3, .seed = 8});
  DefectEvalConfig cfg;
  cfg.num_runs = -1;
  EXPECT_THROW((void)evaluate_under_defects(*net, *data, 0.1, cfg), ContractViolation);
}

TEST(Evaluator, BatchSizeDoesNotChangeAccuracy) {
  const auto data = vision(7, 50);
  auto net = make_small_cnn(SmallCnnConfig{.image_size = 8, .width = 2, .classes = 3, .seed = 9});
  const double a = evaluate_accuracy(*net, *data, 7);    // ragged batches
  const double b = evaluate_accuracy(*net, *data, 256);  // single batch
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(Conv2d, NoBiasHasSingleParam) {
  Rng rng(10);
  Conv2d conv(2, 2, 3, 1, 1, rng, /*with_bias=*/false);
  std::vector<Param*> params;
  conv.collect_params("c.", params);
  ASSERT_EQ(params.size(), 1u);
  EXPECT_EQ(params[0]->name, "c.weight");
}

}  // namespace
}  // namespace ftpim
