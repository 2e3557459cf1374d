// Clean and defect-model evaluation.
//
// evaluate_under_defects implements the paper's testing protocol (Algorithm 1
// lines 31-38): for num_of_runs independent devices, apply stuck-at faults to
// the trained weights at the target testing failure rate, measure accuracy,
// restore, and average.
//
// The runs are independent Monte-Carlo trials, so they fan out over
// parallel_for_chunks: each worker evaluates a contiguous block of runs on
// its own Module::clone(), and every run's fault map is seeded from
// derive_seed(seed, run) — a function of the run index alone. Results are
// therefore bit-identical at any FTPIM_THREADS setting, and the source model
// is never touched (weights, buffers, or caches).
#pragma once

#include <cstdint>
#include <vector>

#include "src/data/dataset.hpp"
#include "src/nn/module.hpp"
#include "src/reram/fault_injector.hpp"
#include "src/reram/fault_model.hpp"
#include "src/reram/qinfer/quantized_engine.hpp"

namespace ftpim {

/// Top-1 accuracy (fraction in [0,1]) of `model` on `data` in eval mode.
double evaluate_accuracy(Module& model, const Dataset& data, std::int64_t batch_size = 256);

/// Which datapath the simulated devices run.
enum class EvalEngine {
  kFloat,      ///< faults folded into float weights (fault_injector)
  kQuantized,  ///< int8 conductance-domain engine, faults in the level domain
};

struct DefectEvalConfig {
  int num_runs = 10;            ///< devices to average over (paper: 100; 0 = none)
  double sa0_fraction = kPaperSa0Fraction;
  InjectorConfig injector{};
  std::uint64_t seed = 99;      ///< master seed; device d uses derive_seed(seed, d)
  std::int64_t batch_size = 256;
  EvalEngine engine = EvalEngine::kFloat;
  /// Engine geometry/levels/ADC when engine == kQuantized; `injector` is
  /// ignored on that path (the level domain needs no float read-back).
  qinfer::QuantizedEngineConfig quantized{};
  /// Detection-aware mode (engine == kQuantized only): force ABFT checksum
  /// columns on and, per device run, record whether the injected faults were
  /// flagged by the MVM checksums — detection_rate / mean_flagged_tiles in
  /// the result. Accuracy numbers are unchanged (checksum columns never
  /// alter data outputs).
  bool abft_detection = false;
};

struct DefectEvalResult {
  double mean_acc = 0.0;
  double std_acc = 0.0;
  double min_acc = 1.0;
  double max_acc = 0.0;
  double mean_cell_fault_rate = 0.0;
  std::vector<double> run_accs;
  /// Filled only with config.abft_detection: fraction of device runs whose
  /// faults tripped at least one checksum, and the mean number of distinct
  /// (layer, tile) pairs flagged per run.
  double detection_rate = 0.0;
  double mean_flagged_tiles = 0.0;
};

/// Mean accuracy over `config.num_runs` simulated defective devices at
/// per-cell failure rate `p_sa`. Runs execute in parallel on per-worker
/// model clones; `model` itself is left untouched.
DefectEvalResult evaluate_under_defects(const Module& model, const Dataset& data, double p_sa,
                                        const DefectEvalConfig& config);

/// Known-answer probe set for in-service health checks: fixed synthetic
/// inputs plus the golden outputs a CLEAN model produces on them. Each serve
/// worker periodically runs these through its live (possibly defective,
/// possibly aged) replica and records the matches in the replica's health
/// record; the fleet simulator probes its devices with them every tick.
struct CanarySet {
  Tensor inputs;  ///< [count, ...sample_shape]
  Tensor golden;  ///< clean-model logits, [count, classes]
  std::vector<std::int64_t> golden_pred;  ///< argmax of each golden row
  [[nodiscard]] std::int64_t count() const noexcept {
    return static_cast<std::int64_t>(golden_pred.size());
  }
};

/// Builds a canary set of `count` samples shaped `sample_shape`, inputs drawn
/// uniform in [-1, 1] from Rng(seed). Golden outputs come from a private
/// clone of `clean_model` (the source is untouched — weights, BN buffers,
/// and caches). Deterministic in (sample_shape, count, seed).
[[nodiscard]] CanarySet make_canary_set(const Module& clean_model, const Shape& sample_shape,
                                        int count, std::uint64_t seed);

/// Scores replica logits against the canary's golden answers; returns how
/// many of the `canary.count()` samples PASS (argmax prediction matches).
[[nodiscard]] int score_canary(const Tensor& logits, const CanarySet& canary);

}  // namespace ftpim
