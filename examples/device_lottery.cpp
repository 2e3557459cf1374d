// The "device lottery": why per-device retraining does not scale.
//
// Retrains a model for one specific defective device (the DAC'17-style
// baseline), then shows what happens when that binary is flashed onto other
// devices from the same production line — versus one stochastic FT model
// shared by all. This is the paper's §I mass-production argument as a
// runnable scenario.
#include <cstdio>
#include <vector>

#include "src/common/config.hpp"
#include "src/common/stats.hpp"
#include "src/core/device_specific.hpp"
#include "src/core/evaluator.hpp"
#include "src/core/ft_trainer.hpp"
#include "src/core/trainer.hpp"
#include "src/data/synthetic.hpp"
#include "src/models/resnet.hpp"

int main() {
  using namespace ftpim;
  const double p_sa = env_double("FTPIM_PSA", 0.02);
  const int devices = env_int("FTPIM_DEVICES", 6, 1);
  const std::uint64_t defect_seed = 777;

  SynthVisionConfig data_cfg;
  data_cfg.num_classes = 10;
  data_cfg.image_size = 16;
  data_cfg.samples = env_int("FTPIM_TRAIN", 896, 1);
  const auto train = make_synthvision(data_cfg, 1);
  data_cfg.samples = env_int("FTPIM_TEST", 384, 1);
  const auto test = make_synthvision(data_cfg, 2);

  auto model = make_resnet20(10, /*base_width=*/8, /*seed=*/5);
  TrainConfig tc;
  tc.epochs = env_int("FTPIM_EPOCHS", 3, 1);
  Trainer(*model, *train, tc).run();
  std::printf("factory model: %.2f%% clean accuracy\n\n",
              evaluate_accuracy(*model, *test) * 100.0);

  auto on_device = [&](Sequential& m, int d) {
    return evaluate_on_device(m, *test, p_sa, kPaperSa0Fraction, InjectorConfig{}, defect_seed,
                              static_cast<std::uint64_t>(d));
  };

  // Per-device retraining for device 0 only (what a lab can afford).
  auto specific = make_resnet20(10, 8, 5);
  load_state_dict_into(*specific, state_dict_of(*model));
  DeviceSpecificConfig ds;
  ds.base = tc;
  ds.p_sa = p_sa;
  ds.defect_master_seed = defect_seed;
  ds.device_index = 0;
  device_specific_retrain(*specific, *train, ds);

  // One stochastic FT model for everyone.
  auto ft = make_resnet20(10, 8, 5);
  load_state_dict_into(*ft, state_dict_of(*model));
  FtTrainConfig ftc;
  ftc.base = tc;
  ftc.target_p_sa = p_sa * 5;
  FaultTolerantTrainer(*ft, *train, ftc).run();

  std::printf("%-8s %-16s %-22s %-18s\n", "device", "no mitigation", "retrained-for-dev0",
              "stochastic FT");
  std::vector<double> spec_accs, ft_accs, plain_accs;
  for (int d = 0; d < devices; ++d) {
    const double a = on_device(*model, d);
    const double b = on_device(*specific, d);
    const double c = on_device(*ft, d);
    plain_accs.push_back(a);
    spec_accs.push_back(b);
    ft_accs.push_back(c);
    std::printf("dev%-5d %-16.2f %-22.2f %-18.2f%s\n", d, a * 100.0, b * 100.0, c * 100.0,
                d == 0 ? "   <- retraining target" : "");
  }
  std::printf("\nfleet means: no-mitigation %.2f%% | device-specific %.2f%% | FT %.2f%%\n",
              summarize(plain_accs).mean * 100.0, summarize(spec_accs).mean * 100.0,
              summarize(ft_accs).mean * 100.0);
  std::printf("device-specific retraining cost scales with fleet size; FT training is one-off.\n");
  return 0;
}
