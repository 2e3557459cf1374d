// End-to-end integration: the paper's full pipeline at miniature scale —
// pretrain -> observe SAF fragility -> FT-train (both schemes) -> verify the
// rescue and the Stability Score improvement; plus the prune-then-harden
// pipeline with mask preservation.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/common/checkpoint.hpp"
#include "src/core/evaluator.hpp"
#include "src/core/ft_trainer.hpp"
#include "src/core/stability.hpp"
#include "src/core/trainer.hpp"
#include "src/data/synthetic.hpp"
#include "src/models/resnet.hpp"
#include "src/prune/magnitude_pruner.hpp"
#include "src/prune/sparsity.hpp"
#include "src/tensor/serialize.hpp"
#include "test_util.hpp"

namespace ftpim {
namespace {

struct Pipeline {
  std::unique_ptr<InMemoryDataset> train;
  std::unique_ptr<InMemoryDataset> test;
  std::unique_ptr<Sequential> model;
  TrainConfig tc;

  Pipeline() {
    SynthVisionConfig cfg;
    cfg.num_classes = 4;
    cfg.image_size = 8;
    cfg.samples = 256;
    cfg.seed = 99;
    train = make_synthvision(cfg, 1);
    cfg.samples = 128;
    test = make_synthvision(cfg, 2);
    model = make_resnet(ResNetConfig{.depth = 8, .classes = 4, .base_width = 4, .seed = 1});
    tc.epochs = 5;
    tc.batch_size = 32;
    tc.sgd.lr = 0.05f;
    tc.augment.enabled = false;
    tc.seed = 3;
  }
};

TEST(Integration, FullPaperPipelineAtMiniatureScale) {
  Pipeline p;
  Trainer(*p.model, *p.train, p.tc).run();
  const double acc_pretrain = evaluate_accuracy(*p.model, *p.test);
  EXPECT_GT(acc_pretrain, 0.5);  // learned something real (chance 0.25)

  const double rate = 0.05;
  DefectEvalConfig cfg;
  cfg.num_runs = 6;
  cfg.seed = 7;
  const double acc_defect_before =
      evaluate_under_defects(*p.model, *p.test, rate, cfg).mean_acc;
  EXPECT_LT(acc_defect_before, acc_pretrain);  // SAF hurts

  // FT-train a copy with each scheme.
  double best_defect_after = 0.0;
  for (const FtScheme scheme : {FtScheme::kOneShot, FtScheme::kProgressive}) {
    auto ft_model =
        make_resnet(ResNetConfig{.depth = 8, .classes = 4, .base_width = 4, .seed = 1});
    load_state_dict_into(*ft_model, state_dict_of(*p.model));
    FtTrainConfig ft;
    ft.base = p.tc;
    ft.base.epochs = scheme == FtScheme::kProgressive ? 2 : 5;
    ft.scheme = scheme;
    ft.target_p_sa = rate;
    FaultTolerantTrainer(*ft_model, *p.train, ft).run();

    const double acc_retrain = evaluate_accuracy(*ft_model, *p.test);
    const double acc_defect_after =
        evaluate_under_defects(*ft_model, *p.test, rate, cfg).mean_acc;
    best_defect_after = std::max(best_defect_after, acc_defect_after);

    const double ss_before =
        stability_score({acc_pretrain, acc_pretrain, acc_defect_before});
    const double ss_after = stability_score({acc_pretrain, acc_retrain, acc_defect_after});
    // The paper's core claim, at any scale: FT training improves the
    // robustness/accuracy trade-off.
    EXPECT_GT(ss_after, ss_before * 0.9)
        << (scheme == FtScheme::kOneShot ? "one-shot" : "progressive");
  }
  EXPECT_GT(best_defect_after, acc_defect_before);
}

TEST(Integration, PruneThenHardenPreservesMasksAndRobustness) {
  Pipeline p;
  Trainer(*p.model, *p.train, p.tc).run();

  const auto masks = magnitude_prune(*p.model, MagnitudePruneConfig{.sparsity = 0.5});
  {
    TrainConfig ft_tc = p.tc;
    ft_tc.sgd.lr = 0.01f;
    ft_tc.epochs = 2;
    Trainer trainer(*p.model, *p.train, ft_tc);
    for (const PruneMask& m : masks) trainer.optimizer().set_mask(m.param, m.mask);
    trainer.run();
  }
  EXPECT_NEAR(model_sparsity(*p.model), 0.5, 0.02);

  const double rate = 0.05;
  DefectEvalConfig cfg;
  cfg.num_runs = 4;
  const double before = evaluate_under_defects(*p.model, *p.test, rate, cfg).mean_acc;

  FtTrainConfig ft;
  ft.base = p.tc;
  ft.base.epochs = 4;
  ft.base.sgd.lr = 0.01f;
  ft.target_p_sa = rate;
  FaultTolerantTrainer(*p.model, *p.train, ft).run();
  // Re-apply masks (FT training's straight-through updates can move pruned
  // weights; deployment re-zeroes them).
  for (const PruneMask& m : masks) {
    apply_mask(const_cast<Param*>(m.param)->value, m.mask);
  }
  EXPECT_NEAR(model_sparsity(*p.model), 0.5, 0.02);
  const double after = evaluate_under_defects(*p.model, *p.test, rate, cfg).mean_acc;
  EXPECT_GT(after, before - 0.05);  // not worse; typically much better
}

TEST(Integration, CheckpointRoundTripPreservesBehaviour) {
  Pipeline p;
  Trainer(*p.model, *p.train, p.tc).run();
  const std::vector<std::uint8_t> bytes = encode_state_dict(state_dict_of(*p.model));
  ByteReader in(bytes, "model");

  auto restored = make_resnet(ResNetConfig{.depth = 8, .classes = 4, .base_width = 4, .seed = 2});
  load_state_dict_into(*restored, decode_state_dict(in));
  EXPECT_DOUBLE_EQ(evaluate_accuracy(*restored, *p.test),
                   evaluate_accuracy(*p.model, *p.test));
}

}  // namespace
}  // namespace ftpim
