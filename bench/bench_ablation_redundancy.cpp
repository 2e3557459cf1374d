// Ablation A4: composing stochastic FT training with hardware mitigations —
// TMR cell redundancy (the ECC-style approach the paper cites as
// complementary, [28]) and lognormal conductance variation (beyond-paper
// robustness probe). Shows (1) TMR alone helps at 3x cell cost, (2) FT
// training alone helps at zero hardware cost, (3) they compose.
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "src/reram/redundancy.hpp"
#include "src/reram/variation.hpp"

namespace {

using namespace ftpim;
using namespace ftpim::bench;

/// Mean accuracy over devices deployed with R-replica redundancy, each a
/// clone of `model` with its own redundant die.
double redundant_defect_acc(const Sequential& model, const Dataset& test, double p_sa,
                            int replicas, int runs) {
  double sum = 0.0;
  for (int run = 0; run < runs; ++run) {
    Rng rng(derive_seed(8181, static_cast<std::uint64_t>(run)));
    const std::unique_ptr<Module> die = model.clone();
    (void)apply_redundancy_to_model(*die, StuckAtFaultModel(p_sa),
                                    RedundancyConfig{.replicas = replicas}, rng);
    sum += evaluate_accuracy(*die, test);
  }
  return sum / runs;
}

/// Mean accuracy under SAF + lognormal variation (sigma).
double variation_defect_acc(Sequential& model, const Dataset& test, double p_sa, float sigma,
                            int runs) {
  double sum = 0.0;
  FaultInjectionSession session(model);
  for (int run = 0; run < runs; ++run) {
    Rng rng(derive_seed(9292, static_cast<std::uint64_t>(run)));
    session.inject(StuckAtFaultModel(p_sa), InjectorConfig{}, rng);
    apply_variation_to_model(model, VariationConfig{.sigma = sigma}, rng);
    sum += evaluate_accuracy(model, test);
    // restores the clean (pre-fault, pre-variation) weights
    session.restore();
  }
  return sum / runs;
}

}  // namespace

int main() {
  Experiment exp(ExperimentConfig{.classes = 10,
                                  .resnet_depth = 20,
                                  .scale = run_scale(),
                                  .seed = static_cast<std::uint64_t>(env_int("FTPIM_SEED", 2032)),
                                  .verbose = false});
  print_preamble("Ablation A4 (FT training x TMR redundancy x variation)", exp);

  const double p_sa = 0.02;
  const int runs = exp.config().scale.defect_runs;

  auto plain = exp.fresh_model();
  const double clean = exp.pretrain(*plain);
  std::printf("pretrained acc=%.2f%%\n", clean * 100.0);
  auto ft = exp.ft_variant(*plain, FtScheme::kOneShot, p_sa * 2.5);
  std::printf("FT model trained (clean %.2f%%)\n\n",
              evaluate_accuracy(*ft, exp.test_data()) * 100.0);

  TablePrinter table("Acc (%) at P_sa=0.02 under different deployments",
                     {"Deployment", "plain model", "FT model"});
  std::map<std::string, std::pair<double, double>> rows;
  auto add = [&](const char* name, double a, double b) {
    table.add_row(name, {a * 100.0, b * 100.0});
    rows[name] = {a, b};
  };

  add("R=1 (no redundancy)",
      redundant_defect_acc(*plain, exp.test_data(), p_sa, 1, runs),
      redundant_defect_acc(*ft, exp.test_data(), p_sa, 1, runs));
  add("R=3 (TMR, 3x cells)",
      redundant_defect_acc(*plain, exp.test_data(), p_sa, 3, runs),
      redundant_defect_acc(*ft, exp.test_data(), p_sa, 3, runs));
  add("R=5 (5x cells)",
      redundant_defect_acc(*plain, exp.test_data(), p_sa, 5, runs),
      redundant_defect_acc(*ft, exp.test_data(), p_sa, 5, runs));
  add("SAF + variation s=0.1",
      variation_defect_acc(*plain, exp.test_data(), p_sa, 0.1f, runs),
      variation_defect_acc(*ft, exp.test_data(), p_sa, 0.1f, runs));
  add("SAF + variation s=0.3",
      variation_defect_acc(*plain, exp.test_data(), p_sa, 0.3f, runs),
      variation_defect_acc(*ft, exp.test_data(), p_sa, 0.3f, runs));
  std::printf("%s\n", table.render().c_str());

  ShapeCheck check;
  check.expect(rows["R=3 (TMR, 3x cells)"].first > rows["R=1 (no redundancy)"].first,
               "TMR alone improves the plain model under SAF");
  check.expect(rows["R=1 (no redundancy)"].second > rows["R=1 (no redundancy)"].first,
               "FT training alone improves robustness at zero hardware cost");
  check.expect(rows["R=3 (TMR, 3x cells)"].second >=
                   std::max(rows["R=3 (TMR, 3x cells)"].first,
                            rows["R=1 (no redundancy)"].second) - 0.02,
               "FT training and TMR compose (within 2pt noise)");
  check.expect(rows["SAF + variation s=0.3"].second > rows["SAF + variation s=0.3"].first,
               "FT training also helps under added conductance variation");
  check.summary();
  return 0;
}
