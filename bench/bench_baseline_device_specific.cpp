// Baseline B1: device-specific defect-aware retraining (Xia et al. DAC'17,
// the paper's §II-B related work) vs stochastic FT training.
//
// The paper's versatility argument, quantified: the device-specific model is
// excellent on the device it was retrained for and poor on every other
// device, while one stochastic FT model generalizes to the whole fleet
// without per-device retraining.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "src/common/stats.hpp"
#include "src/core/device_specific.hpp"

int main() {
  using namespace ftpim;
  using namespace ftpim::bench;
  Experiment exp(ExperimentConfig{.classes = 10,
                                  .resnet_depth = 20,
                                  .scale = run_scale(),
                                  .seed = static_cast<std::uint64_t>(env_int("FTPIM_SEED", 2031)),
                                  .verbose = false});
  print_preamble("Baseline B1 (device-specific retraining vs stochastic FT)", exp);

  const double p_sa = env_double("FTPIM_PSA", 0.01);
  const int fleet = env_int("FTPIM_DEVICES", 8, 1);
  const std::uint64_t defect_seed = 4040;

  auto pretrained = exp.fresh_model();
  const double clean = exp.pretrain(*pretrained);
  std::printf("pretrained acc=%.2f%% | deployment rate P_sa=%g | fleet of %d devices\n\n",
              clean * 100.0, p_sa, fleet);

  auto fleet_accs = [&](Sequential& model) {
    std::vector<double> accs;
    for (int d = 0; d < fleet; ++d) {
      accs.push_back(evaluate_on_device(model, exp.test_data(), p_sa, kPaperSa0Fraction,
                                        InjectorConfig{}, defect_seed,
                                        static_cast<std::uint64_t>(d)));
    }
    return accs;
  };

  // (a) No mitigation.
  const std::vector<double> plain_accs = fleet_accs(*pretrained);

  // (b) Device-specific retraining targeted at device 0.
  auto specific = exp.clone_model(*pretrained);
  DeviceSpecificConfig ds;
  ds.base = exp.base_train_config();
  ds.base.sgd.lr = 0.05f;  // retraining regime (matches Experiment::ft_variant)
  ds.p_sa = p_sa;
  ds.defect_master_seed = defect_seed;
  ds.device_index = 0;
  device_specific_retrain(*specific, exp.train_data(), ds);
  const std::vector<double> specific_accs = fleet_accs(*specific);

  // (c) One stochastic FT model for the whole fleet.
  auto ft = exp.ft_variant(*pretrained, FtScheme::kProgressive, p_sa * 5);
  const std::vector<double> ft_accs = fleet_accs(*ft);

  TablePrinter table("Per-device accuracy (%)", [&] {
    std::vector<std::string> h{"Method", "dev0 (target)"};
    for (int d = 1; d < fleet; ++d) h.push_back("dev" + std::to_string(d));
    h.emplace_back("fleet mean");
    return h;
  }());
  auto add = [&](const char* name, const std::vector<double>& accs) {
    std::vector<double> row = to_percent(accs);
    row.push_back(summarize(accs).mean * 100.0);
    table.add_row(name, row);
  };
  add("No mitigation", plain_accs);
  add("Device-specific (dev0)", specific_accs);
  add("Stochastic FT (ours)", ft_accs);
  std::printf("%s\n", table.render().c_str());

  ShapeCheck check;
  check.expect(specific_accs[0] > plain_accs[0],
               "device-specific retraining rescues its own device");
  const Summary spec_others = summarize({specific_accs.begin() + 1, specific_accs.end()});
  const Summary ft_all = summarize(ft_accs);
  check.expect(specific_accs[0] > spec_others.mean,
               "device-specific model is best on its own device (poor transfer)");
  check.expect(ft_all.mean > summarize(plain_accs).mean,
               "one stochastic FT model lifts the whole fleet over no-mitigation");
  check.expect(ft_all.mean > spec_others.mean,
               "stochastic FT beats device-specific retraining on non-target devices");
  check.summary();
  return 0;
}
