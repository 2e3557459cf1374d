#include <gtest/gtest.h>

#include <memory>

#include "src/core/device_specific.hpp"
#include "src/core/evaluator.hpp"
#include "src/data/synthetic.hpp"
#include "src/models/small_cnn.hpp"
#include "test_util.hpp"

namespace ftpim {
namespace {

struct DsFixture {
  std::unique_ptr<InMemoryDataset> train;
  std::unique_ptr<InMemoryDataset> test;
  std::unique_ptr<Sequential> model;
  TrainConfig tc;

  DsFixture() {
    SynthVisionConfig cfg;
    cfg.num_classes = 3;
    cfg.image_size = 8;
    cfg.samples = 192;
    cfg.seed = 44;
    train = make_synthvision(cfg, 1);
    cfg.samples = 96;
    test = make_synthvision(cfg, 2);
    model = make_small_cnn(SmallCnnConfig{.image_size = 8, .width = 4, .classes = 3, .seed = 9});
    tc.epochs = 4;
    tc.batch_size = 32;
    tc.sgd.lr = 0.05f;
    tc.augment.enabled = false;
  }
};

TEST(EvaluateOnDevice, DeterministicPerDeviceAndRestores) {
  DsFixture s;
  const StateDict before = state_dict_of(*s.model);
  const double a1 = evaluate_on_device(*s.model, *s.test, 0.05, kPaperSa0Fraction, {}, 99, 0);
  const double a2 = evaluate_on_device(*s.model, *s.test, 0.05, kPaperSa0Fraction, {}, 99, 0);
  EXPECT_DOUBLE_EQ(a1, a2);
  for (const auto& [name, p] : named_parameters_of(*s.model)) {
    EXPECT_TRUE(p->value.allclose(before.at(name), 0.0f, 0.0f));
  }
}

TEST(EvaluateOnDevice, DifferentDevicesDifferentMaps) {
  DsFixture s;
  Trainer(*s.model, *s.train, s.tc).run();
  // At a damaging rate, different devices give different accuracies (w.h.p.).
  const double a = evaluate_on_device(*s.model, *s.test, 0.1, kPaperSa0Fraction, {}, 99, 0);
  const double b = evaluate_on_device(*s.model, *s.test, 0.1, kPaperSa0Fraction, {}, 99, 1);
  const double c = evaluate_on_device(*s.model, *s.test, 0.1, kPaperSa0Fraction, {}, 99, 2);
  EXPECT_TRUE(a != b || b != c);
}

TEST(DeviceSpecificRetrain, RescuesTargetDevice) {
  DsFixture s;
  Trainer(*s.model, *s.train, s.tc).run();

  const double rate = 0.1;
  const std::uint64_t seed = 1234;
  const double before = evaluate_on_device(*s.model, *s.test, rate, kPaperSa0Fraction, {}, seed, 0);

  DeviceSpecificConfig ds;
  ds.base = s.tc;
  ds.base.sgd.lr = 0.01f;
  ds.p_sa = rate;
  ds.defect_master_seed = seed;
  ds.device_index = 0;
  device_specific_retrain(*s.model, *s.train, ds);

  const double after = evaluate_on_device(*s.model, *s.test, rate, kPaperSa0Fraction, {}, seed, 0);
  EXPECT_GT(after, before - 0.02);  // typically a large improvement
  // And the model's stored weights are clean/finite after training.
  for (const Param* p : parameters_of(*s.model)) {
    for (std::int64_t i = 0; i < p->value.numel(); ++i) {
      ASSERT_TRUE(std::isfinite(p->value[i]));
    }
  }
}

TEST(DeviceSpecificRetrain, TransfersWorseThanOwnDevice) {
  DsFixture s;
  Trainer(*s.model, *s.train, s.tc).run();
  DeviceSpecificConfig ds;
  ds.base = s.tc;
  ds.base.sgd.lr = 0.01f;
  ds.p_sa = 0.15;  // strong defects make the specialization visible
  ds.defect_master_seed = 5555;
  ds.device_index = 0;
  device_specific_retrain(*s.model, *s.train, ds);

  const double own =
      evaluate_on_device(*s.model, *s.test, ds.p_sa, kPaperSa0Fraction, {}, 5555, 0);
  double others = 0.0;
  const int n_others = 4;
  for (int d = 1; d <= n_others; ++d) {
    others += evaluate_on_device(*s.model, *s.test, ds.p_sa, kPaperSa0Fraction, {}, 5555,
                                 static_cast<std::uint64_t>(d));
  }
  others /= n_others;
  EXPECT_GE(own, others - 0.02);  // specialization: own device at least as good
}

}  // namespace
}  // namespace ftpim
