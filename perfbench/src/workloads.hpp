// The four perfbench workloads and the phases they are made of.
//
// A workload is one model on one datapath. Every run measures the three
// speeds a user of the system sees on that model — serving (open loop at a
// fixed offered rate, then a closed-loop window), the Monte-Carlo Acc_defect
// evaluation, and a fleet lifecycle sweep — but spends the largest share of
// its time in the phase the workload is named after. Each untraced run therefore prints
// all eight end-to-end metrics, and each traced run all per-layer metrics.
//
// A run is made of rounds. Each round sets everything up from the seed
// (model, inputs, server, first fleet), then runs the serve, Monte-Carlo and
// fleet phases. Set-up time is the median over rounds; throughputs and
// latencies are the quiet end of repeated samples (see run_workload).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "src/core/evaluator.hpp"
#include "src/data/dataset.hpp"
#include "src/fleet/fleet_config.hpp"
#include "src/fleet/survival.hpp"
#include "src/nn/sequential.hpp"
#include "src/reram/qinfer/quantized_engine.hpp"
#include "src/serve/inference_server.hpp"

namespace perfbench {

enum class ModelKind { kSmallCnn, kResNet20, kMlp };

struct WorkloadSpec {
  const char* name;
  ModelKind model;
  std::int64_t image_size; ///< side of the CNNs' square inputs (the MLP's are 4x4)
  bool quantized;          ///< datapath of every phase (int8 + ABFT when true)
  // serve phase
  double open_rate_rps;    ///< fixed offered rate of the open loop
  int window;              ///< closed loop: requests kept in flight
  int serve_threads;       ///< parallel_for workers while serving (0 = num_threads())
  // Monte-Carlo phase
  int dies;                ///< devices per evaluate_under_defects call
  std::int64_t images;     ///< test split size (also the serve input set)
  // fleet phase
  int devices;
  std::int64_t ticks;
  double quantized_fraction;
  double fleet_floor;      ///< probe accuracy below which a device dies
  // share of a run's time per phase; sums to 1
  double w_serve, w_mc, w_fleet;
};

[[nodiscard]] const std::vector<WorkloadSpec>& workload_specs();
/// nullptr when `name` is not a workload.
[[nodiscard]] const WorkloadSpec* find_workload(const std::string& name);

struct RunOptions {
  WorkloadSpec spec{};
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;    ///< spans file of a traced run ("" = do not write)
  std::string source_id = "unknown";
};

/// What a run accumulates; main() renders it as the final JSON line.
struct Outcome {
  bool correct = true;
  std::vector<std::string> problems;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  MetricSet metrics;
  std::vector<std::pair<std::string, std::string>> detail;  ///< key -> JSON value

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      problems.push_back(what);
    }
  }
  void note(const std::string& key, const std::string& json_value) {
    detail.emplace_back(key, json_value);
  }
};

// --- inputs, all derived from the seed --------------------------------------

/// The workload's model, freshly built (weights seeded from `seed`).
[[nodiscard]] std::unique_ptr<ftpim::Sequential> build_model(const WorkloadSpec& spec,
                                                            std::uint64_t seed);
/// Labelled inputs: SynthVision images for the CNNs; for the MLP, uniform
/// vectors labelled with the clean model's own prediction.
[[nodiscard]] std::unique_ptr<ftpim::InMemoryDataset> build_inputs(const WorkloadSpec& spec,
                                                                   ftpim::Module& model,
                                                                   std::uint64_t seed);
[[nodiscard]] ftpim::qinfer::QuantizedEngineConfig engine_config(bool abft);
[[nodiscard]] ftpim::serve::ServerConfig server_config(const WorkloadSpec& spec,
                                                       std::uint64_t seed);
[[nodiscard]] ftpim::DefectEvalConfig defect_eval_config(const WorkloadSpec& spec,
                                                         std::uint64_t seed);
[[nodiscard]] ftpim::fleet::FleetConfig fleet_config(const WorkloadSpec& spec,
                                                     const ftpim::Shape& sample_shape,
                                                     std::uint64_t seed);
/// Fixed per-cell stuck-at rate of the Monte-Carlo phase.
inline constexpr double kMcPsa = 0.02;

// --- phases -----------------------------------------------------------------

/// Serve-layer numbers of one round (open loop, then closed loop).
struct ServeRound {
  double sat_rps = 0.0;             ///< closed loop: completions / its wall time
  std::vector<double> latency_ms;   ///< open loop, due time -> answer
  std::vector<double> late_us;      ///< generator lateness per open-loop send
  std::int64_t sent = 0, served = 0, failed = 0;
  // traced rounds only
  std::vector<double> queue_wait_us, batch_service_us;
  double batch_size_mean = 0.0;
  ftpim::serve::ServerStats stats;
};

/// Runs the open loop for `open_s` and the closed loop for `closed_s` on a
/// started server and stops it. Output checks go to `out`.
ServeRound run_serve_phase(ftpim::serve::InferenceServer& server,
                           const ftpim::InMemoryDataset& inputs, const WorkloadSpec& spec,
                           std::uint64_t round_seed, double open_s, double closed_s,
                           std::int64_t first_request_id, Tracer* tracer, Outcome& out);

/// Traced rounds: records, per request id, when its batch reached a replica.
void install_batch_hook(ftpim::serve::ServerConfig& config);

/// Starts a built server (replica clone, defect injection and int8
/// programming happen in its constructor) and sends `warmup` requests
/// through it so lazy set-up is done.
void start_server(ftpim::serve::InferenceServer& server, const ftpim::InMemoryDataset& inputs,
                  int warmup, Outcome& out);

/// Logits of the first kProbes inputs through each replica of a built server
/// that has not started: [replica][probe], one sample per forward.
using ProbeLogits = std::vector<std::vector<ftpim::Tensor>>;
inline constexpr int kProbes = 8;
[[nodiscard]] ProbeLogits probe_replicas(ftpim::serve::InferenceServer& server,
                                         const ftpim::InMemoryDataset& inputs);
/// Sends the probe inputs one at a time through the started server; each
/// answer must equal, bit for bit, the direct forward of the replica that
/// served it.
void check_served_probes(ftpim::serve::InferenceServer& server,
                         const ftpim::InMemoryDataset& inputs, const ProbeLogits& expected,
                         Outcome& out);

struct McPhase {
  std::vector<double> dies_per_s;  ///< one per evaluate_under_defects call
  std::vector<double> run_accs;    ///< per-die accuracies of the first call
  std::int64_t dies = 0;
};
/// Calls evaluate_under_defects until `budget_s` is spent (at least once);
/// every call must return the same per-die accuracies.
McPhase run_mc_phase(const ftpim::Module& model, const ftpim::Dataset& data,
                     const ftpim::DefectEvalConfig& config, double budget_s, Tracer* tracer,
                     Outcome& out);
/// The Monte-Carlo bit-identity checks: die 0 recomputed through the public
/// per-die path (clone, inject, evaluate) and dies 0..1 at one thread must
/// equal `reference`. Fills the reram/core per-layer timings when asked.
void check_mc_reference(const ftpim::Module& model, const ftpim::Dataset& data,
                        const ftpim::DefectEvalConfig& config,
                        const std::vector<double>& reference, MetricSet* layer_metrics,
                        Outcome& out);

struct FleetPhase {
  std::vector<double> ticks_per_s;   ///< device-ticks/s, one per sweep
  std::vector<double> construct_s;   ///< FleetSimulator construction, per sweep
  std::vector<double> tick_ms;       ///< traced sweeps: FleetSimulator::step
  ftpim::fleet::FleetSummary summary;   ///< of the first sweep
  std::vector<ftpim::fleet::TickAggregate> timeline;  ///< of the first sweep
  std::int64_t deaths = 0;
  std::int64_t device_ticks = 0;
};
/// Runs sweeps until `budget_s` is spent (at least one); every sweep of the
/// same config must produce the same summary.
FleetPhase run_fleet_phase(const ftpim::Module& model, const ftpim::fleet::FleetConfig& config,
                           double budget_s, Tracer* tracer, Outcome& out);
/// Re-runs the first `ticks` ticks at one thread and compares the timeline.
void check_fleet_reference(const ftpim::Module& model, const ftpim::fleet::FleetConfig& config,
                           const std::vector<ftpim::fleet::TickAggregate>& reference,
                           std::int64_t ticks, Outcome& out);

/// Per-layer probes run once at the end of a traced run (layer_probes.cpp).
void run_layer_probes(const WorkloadSpec& spec, const ftpim::Module& model,
                      const ftpim::InMemoryDataset& inputs, std::uint64_t seed,
                      MetricSet& layer, Outcome& out);

/// The whole run (workloads.cpp is main.cpp's entry point).
Outcome run_workload(const RunOptions& options);

}  // namespace perfbench
