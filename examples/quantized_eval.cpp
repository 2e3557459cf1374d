// Quantized deployment design space: accuracy vs conductance levels vs ADC
// resolution, with and without stuck-at faults.
//
// Trains a small classifier in float, then evaluates it through the
// QuantizedCrossbarEngine (int8 activations, L-level cells, b-bit ADC) at
// every (levels, adc_bits) grid point — first defect-free (pure quantization
// loss) and then at a per-cell stuck-at rate (faults applied in the level
// domain, where the hardware sees them). The defect-free column shows the
// acceptance criterion of the quantized engine: >= 16 levels with an 8-bit
// ADC stays within 1% of the float baseline.
//
// Knobs: FTPIM_PSA (default 0.02), FTPIM_RUNS (default 3), FTPIM_EPOCHS,
// FTPIM_ADC_RANGE (ADC range_factor override).
#include <cstdio>
#include <memory>
#include <vector>

#include "src/common/config.hpp"
#include "src/common/rng.hpp"
#include "src/core/evaluator.hpp"
#include "src/core/trainer.hpp"
#include "src/data/synthetic.hpp"
#include "src/nn/activations.hpp"
#include "src/nn/linear.hpp"
#include "src/nn/pooling.hpp"
#include "src/nn/sequential.hpp"
#include "src/reram/qinfer/quantized_engine.hpp"

namespace {

using namespace ftpim;

std::unique_ptr<Sequential> make_model(std::int64_t image, std::int64_t classes,
                                       std::uint64_t seed) {
  Rng rng(seed);
  auto net = std::make_unique<Sequential>();
  net->emplace<Flatten>();
  net->emplace<Linear>(3 * image * image, 64, rng, /*with_bias=*/true);
  net->emplace<ReLU>();
  net->emplace<Linear>(64, classes, rng, /*with_bias=*/true);
  return net;
}

}  // namespace

int main() {
  const double p_sa = env_double("FTPIM_PSA", 0.02);
  const int runs = env_int("FTPIM_RUNS", 3, 1);
  const std::int64_t image = 8, classes = 4;

  SynthVisionConfig dc;
  dc.num_classes = classes;
  dc.image_size = image;
  dc.samples = 512;
  dc.seed = 41;
  const auto train = make_synthvision(dc, 1);
  dc.samples = 256;
  const auto test = make_synthvision(dc, 2);

  auto model = make_model(image, classes, 15);
  TrainConfig tc;
  tc.epochs = env_int("FTPIM_EPOCHS", 6, 1);
  tc.batch_size = 32;
  tc.sgd.lr = 0.05f;
  tc.augment.enabled = false;
  tc.seed = 7;
  Trainer(*model, *train, tc).run();
  const double float_acc = evaluate_accuracy(*model, *test);
  std::printf("float baseline: %.2f%% (chance %.1f%%)\n\n", float_acc * 100.0,
              100.0 / static_cast<double>(classes));

  const std::vector<int> level_grid = {4, 8, 16, 64, 256};
  const std::vector<int> adc_grid = {4, 6, 8, 0};  // 0 = ideal readout

  std::printf("accuracy (%%) through the quantized engine, p_sa = 0 (quantization loss only)\n");
  std::printf("%8s", "levels");
  for (const int bits : adc_grid) {
    if (bits == 0) {
      std::printf(" %11s", "ideal ADC");
    } else {
      std::printf(" %8d-bit", bits);
    }
  }
  std::printf("\n");

  DefectEvalConfig cfg;
  cfg.engine = EvalEngine::kQuantized;
  cfg.batch_size = 64;
  cfg.quantized.adc.range_factor =
      env_double("FTPIM_ADC_RANGE", cfg.quantized.adc.range_factor, 0.0, 1.0);
  for (const int levels : level_grid) {
    std::printf("%8d", levels);
    for (const int bits : adc_grid) {
      cfg.quantized.levels = levels;
      cfg.quantized.adc.bits = bits;
      cfg.num_runs = 1;
      const double acc = evaluate_under_defects(*model, *test, 0.0, cfg).mean_acc;
      std::printf(" %11.2f%s", acc * 100.0,
                  (levels >= 16 && bits >= 8 && acc + 0.01 < float_acc) ? "!" : " ");
    }
    std::printf("\n");
  }
  std::printf("('!' marks a >=16-level / >=8-bit point more than 1%% below float)\n\n");

  std::printf("accuracy (%%) at p_sa = %.3f (%d device draws per point)\n", p_sa, runs);
  std::printf("%8s", "levels");
  for (const int bits : adc_grid) {
    if (bits == 0) {
      std::printf(" %11s", "ideal ADC");
    } else {
      std::printf(" %8d-bit", bits);
    }
  }
  std::printf("\n");
  for (const int levels : level_grid) {
    std::printf("%8d", levels);
    for (const int bits : adc_grid) {
      cfg.quantized.levels = levels;
      cfg.quantized.adc.bits = bits;
      cfg.num_runs = runs;
      const DefectEvalResult r = evaluate_under_defects(*model, *test, p_sa, cfg);
      std::printf(" %11.2f ", r.mean_acc * 100.0);
    }
    std::printf("\n");
  }
  std::printf("\nfaults hit the LEVEL domain (stuck-off = level 0, stuck-on = level L-1):\n"
              "more levels shrink quantization loss but do not change the fault blast\n"
              "radius, while coarse ADCs compound with faults (a stuck-on cell raises\n"
              "the column full-scale, widening every other weight's ADC step).\n");
  return 0;
}
