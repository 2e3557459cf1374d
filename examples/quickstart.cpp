// Quickstart: train a small CNN, watch it break under stuck-at faults, then
// fix it with one-shot stochastic fault-tolerant training — checkpointed, so
// a kill at any point resumes instead of restarting.
//
//   $ ./quickstart
//
// Walks the full public API surface: dataset -> model -> Trainer ->
// evaluate_under_defects -> FaultTolerantTrainer (+ crash-safe checkpoints
// and exact resume) -> StabilityScore. Each Monte-Carlo run is one device of
// the paper's mass-produced fleet: one model is trained once and shipped to
// every device, each with its own random defect map, so the defect
// evaluations report the fleet's accuracy distribution and yield.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "src/common/config.hpp"
#include "src/tensor/serialize.hpp"
#include "src/core/evaluator.hpp"
#include "src/core/ft_trainer.hpp"
#include "src/core/stability.hpp"
#include "src/core/train_checkpoint.hpp"
#include "src/core/trainer.hpp"
#include "src/data/synthetic.hpp"
#include "src/models/small_cnn.hpp"

namespace {

/// One line per fleet: mean accuracy over the devices, the p10/p50/p90
/// device, and the yield — the share of devices within 2 points of the
/// factory model's clean accuracy.
void print_fleet_report(const char* name, const ftpim::DefectEvalResult& r, double clean_acc) {
  std::vector<double> accs = r.run_accs;
  std::sort(accs.begin(), accs.end());
  const auto pct = [&accs](double q) {
    return accs[static_cast<std::size_t>(q * static_cast<double>(accs.size() - 1))] * 100.0;
  };
  const auto good =
      std::count_if(accs.begin(), accs.end(), [&](double a) { return a >= clean_acc - 0.02; });
  std::printf("%-18s mean %.2f%% (+/- %.2f) | p10 %.2f%% | p50 %.2f%% | p90 %.2f%% | "
              "yield %.0f%%\n",
              name, r.mean_acc * 100.0, r.std_acc * 100.0, pct(0.10), pct(0.50), pct(0.90),
              100.0 * static_cast<double>(good) / static_cast<double>(accs.size()));
}

}  // namespace

int main() {
  using namespace ftpim;

  // 1. Data: a 10-class procedural vision task (CIFAR stand-in).
  SynthVisionConfig data_cfg;
  data_cfg.num_classes = 10;
  data_cfg.image_size = 16;
  data_cfg.samples = env_int("FTPIM_TRAIN", 1024, 1);
  const auto train = make_synthvision(data_cfg, /*sample_stream=*/1);
  data_cfg.samples = env_int("FTPIM_TEST", 512, 1);
  const auto test = make_synthvision(data_cfg, /*sample_stream=*/2);

  // 2. Model + standard training.
  auto model = make_small_cnn(SmallCnnConfig{.image_size = 16, .width = 8, .classes = 10});
  TrainConfig tc;
  tc.epochs = env_int("FTPIM_EPOCHS", 6, 1);
  tc.verbose = true;
  Trainer(*model, *train, tc).run();
  const double acc_pretrain = evaluate_accuracy(*model, *test);
  std::printf("\nclean accuracy after standard training: %.2f%%\n", acc_pretrain * 100.0);

  // 3. Ship to a fleet of faulty ReRAM devices (1% of cells stuck).
  DefectEvalConfig eval_cfg;
  eval_cfg.num_runs = env_int("FTPIM_RUNS", 25, 1);
  const double p_sa = 0.01;
  std::printf("simulated fleet: %d devices at per-cell failure rate %.3f\n", eval_cfg.num_runs,
              p_sa);
  const DefectEvalResult broken = evaluate_under_defects(*model, *test, p_sa, eval_cfg);
  print_fleet_report("without FT:", broken, acc_pretrain);

  // 4. One-shot stochastic fault-tolerant retraining at the target rate,
  // checkpointed every epoch. Kill the process at any instant and rerun:
  // resume() continues from the newest checkpoint and lands on the exact
  // same weights the uninterrupted run would have produced.
  const std::string ckpt_dir =
      (std::filesystem::temp_directory_path() / "ftpim_quickstart_ckpt").string();
  FtTrainConfig ft;
  ft.base = tc;
  ft.base.verbose = false;
  ft.scheme = FtScheme::kOneShot;
  ft.target_p_sa = p_sa;
  ft.checkpoint.dir = ckpt_dir;
  ft.checkpoint.every_epochs = 1;
  ft.checkpoint.keep_last = 2;
  FaultTolerantTrainer ft_trainer(*model, *train, ft);
  if (const std::string resume_from = latest_checkpoint(ckpt_dir); !resume_from.empty()) {
    std::printf("resuming FT training from %s\n", resume_from.c_str());
    ft_trainer.resume(resume_from);
  } else {
    ft_trainer.run();
  }

  // The final checkpoint doubles as the deployable artifact: reload it into
  // a fresh model and verify the weights round-tripped bit-exactly.
  auto reloaded = make_small_cnn(SmallCnnConfig{.image_size = 16, .width = 8, .classes = 10});
  const TrainingCheckpoint final_ckpt = load_training_checkpoint(latest_checkpoint(ckpt_dir));
  load_state_dict_into(*reloaded, final_ckpt.model);
  if (encode_state_dict(state_dict_of(*reloaded)) !=
      encode_state_dict(state_dict_of(*model))) {
    std::printf("checkpoint reload mismatch!\n");
    return 1;
  }
  std::printf("checkpoint round-trip verified: reloaded weights are bit-identical\n");
  std::filesystem::remove_all(ckpt_dir);  // keep reruns starting fresh

  const double acc_retrain = evaluate_accuracy(*model, *test);
  const DefectEvalResult hardened = evaluate_under_defects(*model, *test, p_sa, eval_cfg);
  std::printf("after FT training: clean %.2f%%\n", acc_retrain * 100.0);
  print_fleet_report("with FT:", hardened, acc_pretrain);

  // 5. Stability Score quantifies the robustness/accuracy trade-off.
  const double ss_before = stability_score({acc_pretrain, acc_pretrain, broken.mean_acc});
  const double ss_after = stability_score({acc_pretrain, acc_retrain, hardened.mean_acc});
  std::printf("Stability Score: %.2f -> %.2f\n", ss_before, ss_after);
  // Fail only on a catastrophic regression; at easy settings both models can
  // sit within noise of each other.
  return hardened.mean_acc > broken.mean_acc - 0.05 ? 0 : 1;
}
