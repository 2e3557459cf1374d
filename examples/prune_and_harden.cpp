// Compress-then-harden pipeline for resource-constrained edge systems:
// ADMM-prune a trained ResNet to 70% sparsity, show the amplified fragility
// the paper reports (§IV-C), then recover robustness with stochastic FT
// training on the pruned model — masks stay intact throughout.
#include <cstdio>

#include "src/common/config.hpp"
#include "src/core/evaluator.hpp"
#include "src/core/ft_trainer.hpp"
#include "src/core/stability.hpp"
#include "src/core/trainer.hpp"
#include "src/data/synthetic.hpp"
#include "src/models/resnet.hpp"
#include "src/prune/admm_pruner.hpp"
#include "src/prune/sparsity.hpp"

int main() {
  using namespace ftpim;

  SynthVisionConfig data_cfg;
  data_cfg.num_classes = 10;
  data_cfg.image_size = 16;
  data_cfg.samples = env_int("FTPIM_TRAIN", 1024, 1);
  const auto train = make_synthvision(data_cfg, 1);
  data_cfg.samples = env_int("FTPIM_TEST", 512, 1);
  const auto test = make_synthvision(data_cfg, 2);

  auto model = make_resnet20(10, /*base_width=*/8, /*seed=*/3);
  TrainConfig tc;
  tc.epochs = env_int("FTPIM_EPOCHS", 4, 1);
  Trainer(*model, *train, tc).run();
  const double acc_dense = evaluate_accuracy(*model, *test);
  std::printf("dense model: %.2f%%\n", acc_dense * 100.0);

  // --- ADMM pruning to 70% sparsity --------------------------------------
  const double sparsity = env_double("FTPIM_SPARSITY", 0.70);
  AdmmPruner pruner(*model, AdmmConfig{.sparsity = sparsity, .rho = 1e-2f});
  {
    TrainConfig admm_tc = tc;
    admm_tc.sgd.lr = 0.01f;
    Trainer trainer(*model, *train, admm_tc);
    TrainHooks hooks;
    hooks.after_backward = [&pruner](int, std::int64_t) { pruner.regularize_grads(); };
    hooks.after_epoch = [&pruner](int, float) {
      pruner.dual_update();
      std::printf("  ADMM primal residual: %.4f\n", pruner.primal_residual());
    };
    trainer.set_hooks(hooks);
    trainer.run();
  }
  const auto masks = pruner.finalize();
  {
    TrainConfig ft_tc = tc;
    ft_tc.sgd.lr = 0.01f;
    Trainer trainer(*model, *train, ft_tc);
    for (const PruneMask& m : masks) trainer.optimizer().set_mask(m.param, m.mask);
    trainer.run();
  }
  const double acc_pruned = evaluate_accuracy(*model, *test);
  std::printf("after ADMM pruning + fine-tune: %.2f%% at %.1f%% sparsity\n", acc_pruned * 100.0,
              model_sparsity(*model) * 100.0);
  std::printf("%s\n", sparsity_report(*model).c_str());

  // --- fragility of the pruned model --------------------------------------
  DefectEvalConfig eval_cfg;
  eval_cfg.num_runs = env_int("FTPIM_RUNS", 10, 1);
  const double p_sa = env_double("FTPIM_PSA", 0.01);
  const double broken = evaluate_under_defects(*model, *test, p_sa, eval_cfg).mean_acc;
  std::printf("pruned model under P_sa=%.3f defects: %.2f%%\n", p_sa, broken * 100.0);

  // --- FT training on the pruned model (masks preserved via optimizer) ----
  FtTrainConfig ft;
  ft.base = tc;
  ft.base.sgd.lr = 0.01f;
  ft.scheme = FtScheme::kOneShot;
  ft.target_p_sa = p_sa * 5;  // paper: train somewhat above the testing rate
  {
    // FaultTolerantTrainer drives a Trainer internally; pruned positions are
    // kept at zero by re-applying masks after training.
    FaultTolerantTrainer trainer(*model, *train, ft);
    trainer.run();
    for (const PruneMask& m : masks) {
      apply_mask(const_cast<Param*>(m.param)->value, m.mask);
    }
  }
  const double acc_ft = evaluate_accuracy(*model, *test);
  const double hardened = evaluate_under_defects(*model, *test, p_sa, eval_cfg).mean_acc;
  std::printf("after FT training: clean %.2f%%, under defects %.2f%% (sparsity %.1f%%)\n",
              acc_ft * 100.0, hardened * 100.0, model_sparsity(*model) * 100.0);
  std::printf("Stability Score: %.2f -> %.2f\n",
              stability_score({acc_pruned, acc_pruned, broken}),
              stability_score({acc_pruned, acc_ft, hardened}));
  return hardened > broken - 0.05 ? 0 : 1;  // fail only on clear regression
}
