#include "src/core/evaluator.hpp"

#include "src/common/check.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "src/common/parallel.hpp"
#include "src/data/dataloader.hpp"
#include "src/reram/qinfer/deploy.hpp"
#include "src/tensor/tensor_ops.hpp"

namespace ftpim {

double evaluate_accuracy(Module& model, const Dataset& data, std::int64_t batch_size) {
  FTPIM_CHECK_GT(batch_size, std::int64_t{0}, "evaluate_accuracy: batch_size");
  if (data.size() == 0) return 0.0;
  DataLoader loader(data, batch_size, /*shuffle=*/false, /*seed=*/0);
  std::int64_t hits = 0;
  const std::int64_t batches = loader.batches_per_epoch();
  for (std::int64_t b = 0; b < batches; ++b) {
    const Batch batch = loader.batch(b);
    const Tensor logits = model.forward(batch.images, /*training=*/false);
    for (std::int64_t r = 0; r < batch.size(); ++r) {
      if (argmax_row(logits, r) == batch.labels[static_cast<std::size_t>(r)]) ++hits;
    }
  }
  return static_cast<double>(hits) / static_cast<double>(data.size());
}

DefectEvalResult evaluate_under_defects(const Module& model, const Dataset& data, double p_sa,
                                        const DefectEvalConfig& config) {
  // Protocol contracts up front: a bad rate or config must fail loudly, not
  // skew a 100-run mean (Algorithm 1 lines 31-38).
  FTPIM_CHECK(p_sa >= 0.0 && p_sa <= 1.0, "evaluate_under_defects: p_sa %g outside [0,1]", p_sa);
  FTPIM_CHECK(config.sa0_fraction >= 0.0 && config.sa0_fraction <= 1.0,
              "evaluate_under_defects: sa0_fraction outside [0,1]");
  FTPIM_CHECK_GT(config.batch_size, std::int64_t{0}, "evaluate_under_defects: batch_size");
  config.injector.range.validate();
  FTPIM_CHECK(!config.abft_detection || config.engine == EvalEngine::kQuantized,
              "evaluate_under_defects: abft_detection requires the quantized engine");
  FTPIM_CHECK_GE(config.num_runs, 0, "evaluate_under_defects: num_runs");
  DefectEvalResult result;
  if (config.num_runs == 0) return result;
  const StuckAtFaultModel fault_model(p_sa, config.sa0_fraction);
  const std::size_t runs = static_cast<std::size_t>(config.num_runs);
  result.run_accs.assign(runs, 0.0);
  std::vector<double> run_rates(runs, 0.0);
  std::vector<std::uint8_t> run_detected(runs, 0);
  std::vector<std::int64_t> run_flagged(runs, 0);
  qinfer::QuantizedEngineConfig engine_config = config.quantized;
  if (config.abft_detection) engine_config.abft.enabled = true;

  // Fan the Monte-Carlo device runs out over workers. Each worker gets a
  // private deep clone — faulted weights, BN buffers, and forward caches are
  // all per-worker — and a reusable injection session, so runs inside a
  // chunk share buffers instead of reallocating snapshots. Run `r`'s fault
  // map depends only on derive_seed(config.seed, r); the chunk layout only
  // decides who computes which run, never what that run computes.
  //
  // On the quantized path the clone is deployed onto int8 crossbar engines
  // once per worker; each run then swaps defect maps in the level domain
  // (non-destructive — programmed levels are kept separately from faults),
  // so no re-programming happens between runs.
  parallel_for_chunks(
      0, runs,
      [&](std::size_t lo, std::size_t hi) {
        const std::unique_ptr<Module> local = model.clone();
        if (config.engine == EvalEngine::kQuantized) {
          const auto deployment = qinfer::deploy_quantized(*local, engine_config);
          for (std::size_t run = lo; run < hi; ++run) {
            Rng rng(derive_seed(config.seed, static_cast<std::uint64_t>(run)));
            const DefectMap map = DefectMap::sample(deployment->cell_count(), fault_model, rng);
            deployment->apply_defect_map(map);
            result.run_accs[run] = evaluate_accuracy(*local, data, config.batch_size);
            run_rates[run] = map.observed_rate();
            if (config.abft_detection) {
              // Checksums were programmed against CLEAN levels at deploy (no
              // rebaseline between runs), so this drains exactly what run
              // `run`'s injected map tripped during the accuracy pass.
              std::int64_t mismatches = 0, flagged = 0;
              for (const abft::TileFaultReport& r : deployment->take_abft_reports()) {
                mismatches += r.mismatches;
                flagged += r.flagged_tiles();
              }
              run_detected[run] = mismatches > 0 ? 1 : 0;
              run_flagged[run] = flagged;
            }
            deployment->clear_defects();
          }
          return;
        }
        FaultInjectionSession session(*local);
        for (std::size_t run = lo; run < hi; ++run) {
          Rng rng(derive_seed(config.seed, static_cast<std::uint64_t>(run)));
          session.inject(fault_model, config.injector, rng);
          result.run_accs[run] = evaluate_accuracy(*local, data, config.batch_size);
          run_rates[run] = session.stats().cell_fault_rate();
          session.restore();
        }
      },
      /*min_parallel_trip=*/2);

  // Aggregate in run order so reductions are bit-identical at any worker
  // count (same FP addition order as the historical serial loop).
  double sum = 0.0, sq = 0.0, rate_sum = 0.0;
  for (std::size_t run = 0; run < runs; ++run) {
    const double acc = result.run_accs[run];
    sum += acc;
    sq += acc * acc;
    rate_sum += run_rates[run];
    result.min_acc = std::min(result.min_acc, acc);
    result.max_acc = std::max(result.max_acc, acc);
  }
  const double n = static_cast<double>(config.num_runs);
  result.mean_acc = sum / n;
  result.std_acc = std::sqrt(std::max(0.0, sq / n - result.mean_acc * result.mean_acc));
  result.mean_cell_fault_rate = rate_sum / n;
  if (config.abft_detection) {
    std::int64_t detected = 0, flagged = 0;
    for (std::size_t run = 0; run < runs; ++run) {
      detected += run_detected[run];
      flagged += run_flagged[run];
    }
    result.detection_rate = static_cast<double>(detected) / n;
    result.mean_flagged_tiles = static_cast<double>(flagged) / n;
  }
  return result;
}

CanarySet make_canary_set(const Module& clean_model, const Shape& sample_shape, int count,
                          std::uint64_t seed) {
  FTPIM_CHECK_GT(count, 0, "make_canary_set: count");
  FTPIM_CHECK(!sample_shape.empty(), "make_canary_set: sample_shape must be non-empty");
  Shape batched;
  batched.reserve(sample_shape.size() + 1);
  batched.push_back(count);
  batched.insert(batched.end(), sample_shape.begin(), sample_shape.end());
  CanarySet canary;
  canary.inputs = Tensor(batched);
  Rng rng(seed);
  for (std::int64_t i = 0; i < canary.inputs.numel(); ++i) {
    canary.inputs[i] = rng.uniform(-1.0f, 1.0f);
  }
  const std::unique_ptr<Module> probe = clean_model.clone();
  canary.golden = probe->forward(canary.inputs, /*training=*/false);
  FTPIM_CHECK_EQ(canary.golden.dim(0), static_cast<std::int64_t>(count),
                 "make_canary_set: model returned %lld rows for %d inputs",
                 static_cast<long long>(canary.golden.dim(0)), count);
  canary.golden_pred.reserve(static_cast<std::size_t>(count));
  for (std::int64_t r = 0; r < count; ++r) {
    canary.golden_pred.push_back(argmax_row(canary.golden, r));
  }
  return canary;
}

int score_canary(const Tensor& logits, const CanarySet& canary) {
  FTPIM_CHECK_EQ(logits.numel(), canary.golden.numel(),
                 "score_canary: logits shape mismatch (%lld values vs golden %lld)",
                 static_cast<long long>(logits.numel()),
                 static_cast<long long>(canary.golden.numel()));
  int passed = 0;
  for (std::int64_t r = 0; r < canary.count(); ++r) {
    if (argmax_row(logits, r) == canary.golden_pred[static_cast<std::size_t>(r)]) ++passed;
  }
  return passed;
}

}  // namespace ftpim
