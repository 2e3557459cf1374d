// Monte-Carlo phase: the paper's Acc_defect protocol, evaluate_under_defects
// over a fixed die count at a fixed P_sa, called repeatedly, plus the
// bit-identity checks against an independent per-die path and one thread.
#include <memory>

#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/reram/defect_map.hpp"
#include "src/reram/fault_injector.hpp"
#include "src/reram/qinfer/deploy.hpp"
#include "workloads.hpp"

namespace perfbench {

ftpim::DefectEvalConfig defect_eval_config(const WorkloadSpec& spec, std::uint64_t seed) {
  ftpim::DefectEvalConfig cfg;
  cfg.num_runs = spec.dies;
  cfg.seed = ftpim::derive_seed(seed, 0x3c);
  cfg.batch_size = 256;
  if (spec.quantized) {
    cfg.engine = ftpim::EvalEngine::kQuantized;
    cfg.quantized = engine_config(/*abft=*/true);
    cfg.abft_detection = true;
  }
  return cfg;
}

McPhase run_mc_phase(const ftpim::Module& model, const ftpim::Dataset& data,
                     const ftpim::DefectEvalConfig& config, double budget_s, Tracer* tracer,
                     Outcome& out) {
  McPhase phase;
  const std::int64_t start = now_ns();
  const auto budget_ns = static_cast<std::int64_t>(budget_s * 1e9);
  std::int64_t last_ns = 0;
  // Another call only if it is expected to end inside the budget.
  for (std::int64_t call = 0; call == 0 || now_ns() - start + last_ns <= budget_ns; ++call) {
    const std::int64_t t0 = now_ns();
    const ftpim::DefectEvalResult r = ftpim::evaluate_under_defects(model, data, kMcPsa, config);
    const std::int64_t t1 = now_ns();
    last_ns = t1 - t0;
    if (tracer != nullptr) tracer->add("core.evaluate_under_defects", t0, t1, -1, call);
    phase.dies_per_s.push_back(static_cast<double>(config.num_runs) /
                               (static_cast<double>(t1 - t0) * 1e-9));
    phase.dies += config.num_runs;
    if (call == 0) {
      phase.run_accs = r.run_accs;
    } else {
      out.check(r.run_accs == phase.run_accs,
                "mc: evaluate_under_defects returned different per-die accuracies on a repeat");
    }
  }
  return phase;
}

void check_mc_reference(const ftpim::Module& model, const ftpim::Dataset& data,
                        const ftpim::DefectEvalConfig& config,
                        const std::vector<double>& reference, MetricSet* layer_metrics,
                        Outcome& out) {
  if (reference.size() < 2) {
    out.check(false, "mc: fewer than two dies to check");
    return;
  }
  // Die 0 through the public per-die path: clone, inject with the die's own
  // seed, evaluate. Same stream as the evaluator, computed independently.
  const ftpim::StuckAtFaultModel fault_model(kMcPsa, config.sa0_fraction);
  const std::int64_t t0 = now_ns();
  const std::unique_ptr<ftpim::Module> die = model.clone();
  const std::int64_t t1 = now_ns();
  ftpim::Rng rng(ftpim::derive_seed(config.seed, 0));
  std::unique_ptr<ftpim::qinfer::QuantizedDeployment> deployment;
  if (config.engine == ftpim::EvalEngine::kQuantized) {
    ftpim::qinfer::QuantizedEngineConfig qcfg = config.quantized;
    qcfg.abft.enabled = qcfg.abft.enabled || config.abft_detection;
    deployment = ftpim::qinfer::deploy_quantized(*die, qcfg);
    deployment->apply_defect_map(
        ftpim::DefectMap::sample(deployment->cell_count(), fault_model, rng));
  } else {
    (void)ftpim::inject_into_model(*die, fault_model, config.injector, rng);
  }
  const std::int64_t t2 = now_ns();
  const double acc = ftpim::evaluate_accuracy(*die, data, config.batch_size);
  const std::int64_t t3 = now_ns();
  out.check(acc == reference[0],
            "mc: die 0 recomputed per die (clone, inject, evaluate) differs from the evaluator");
  if (layer_metrics != nullptr) {
    layer_metrics->set("model.clone_us", static_cast<double>(t1 - t0) * 1e-3);
    layer_metrics->set("reram.inject_us", static_cast<double>(t2 - t1) * 1e-3);
    layer_metrics->set("core.eval_die_ms", static_cast<double>(t3 - t2) * 1e-6);
  }

  // Dies 0..1 at one thread must equal the default-thread run bit for bit.
  ftpim::DefectEvalConfig serial = config;
  serial.num_runs = 2;
  ftpim::set_num_threads(1);
  const ftpim::DefectEvalResult one = ftpim::evaluate_under_defects(model, data, kMcPsa, serial);
  ftpim::set_num_threads(0);
  out.check(one.run_accs.size() == 2 && one.run_accs[0] == reference[0] &&
                one.run_accs[1] == reference[1],
            "mc: per-die accuracies at one thread differ from the default thread count");
}

}  // namespace perfbench
