// Workload table, seeded inputs, and the round structure of one run.
#include "workloads.hpp"

#include <algorithm>
#include <memory>

#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/data/synthetic.hpp"
#include "src/models/resnet.hpp"
#include "src/models/small_cnn.hpp"
#include "src/nn/activations.hpp"
#include "src/nn/linear.hpp"
#include "src/nn/pooling.hpp"
#include "src/tensor/tensor_ops.hpp"

namespace perfbench {

// Offered rates are fixed so that later changes are measured at the same
// load. They sit at 20% or less of each model's closed-loop rate on the 4-core
// AVX2/VNNI host the benchmark was defined on: open-loop batches are small,
// so half the closed-loop rate would already be the knee, where p50 swings
// by multiples between runs.
//
// Every workload but serve_float serves with one parallel_for worker per
// replica, so generator plus two replicas stay within the four cores;
// serve_float keeps the default, as thread spawn in parallel_for_chunks is
// part of what it measures. Conv layers split a batch's samples over all
// cores, so two replicas at the default run eight threads on four cores.
// serve_int8_abft also serves 8x8 images so that its open-loop tail measures
// the program, not the host's other load: a 16x16 int8 batch takes ~0.6 ms,
// long enough to be preempted, and two busy processes beside a run raise its
// p99 2.8x at 16x16 with the default workers, 1.5x at one worker, and 8% at
// 8x8 and one worker, as they do serve_float's.
const std::vector<WorkloadSpec>& workload_specs() {
  static const std::vector<WorkloadSpec> specs = {
      // Per-request work is tiny, so thread spawn, tensor allocation,
      // packing, ReLU/pool and queueing dominate.
      {"serve_float", ModelKind::kSmallCnn, /*image_size=*/16, /*quantized=*/false,
       /*open_rate_rps=*/3000.0, /*window=*/64, /*serve_threads=*/0,
       /*dies=*/8, /*images=*/256,
       /*devices=*/32, /*ticks=*/8, /*quantized_fraction=*/0.0, /*fleet_floor=*/0.0,
       /*w_serve=*/0.7, /*w_mc=*/0.15, /*w_fleet=*/0.15},
      // Quantize, qgemm, ADC epilogue and checksum verify dominate, with
      // maintenance writes (aging, scrub, refresh, repair) beside the reads.
      {"serve_int8_abft", ModelKind::kSmallCnn, /*image_size=*/8, /*quantized=*/true,
       /*open_rate_rps=*/3000.0, /*window=*/64, /*serve_threads=*/1,
       /*dies=*/8, /*images=*/256,
       /*devices=*/32, /*ticks=*/8, /*quantized_fraction=*/1.0, /*fleet_floor=*/0.0,
       /*w_serve=*/0.7, /*w_mc=*/0.15, /*w_fleet=*/0.15},
      // The Acc_defect protocol: large-batch GEMM and per-die clone and
      // injection dominate, parallel over dies with serial inner loops.
      {"mc_defect_eval", ModelKind::kResNet20, /*image_size=*/16, /*quantized=*/false,
       /*open_rate_rps=*/400.0, /*window=*/64, /*serve_threads=*/1,
       /*dies=*/8, /*images=*/256,
       /*devices=*/16, /*ticks=*/4, /*quantized_fraction=*/0.0, /*fleet_floor=*/0.0,
       /*w_serve=*/0.3, /*w_mc=*/0.5, /*w_fleet=*/0.2},
      // Fleet stepping and the ReplicaPool repair/refresh/aging mutators do
      // most of the work.
      {"fleet_lifecycle", ModelKind::kMlp, /*image_size=*/4, /*quantized=*/true,
       /*open_rate_rps=*/10000.0, /*window=*/64, /*serve_threads=*/1,
       /*dies=*/16, /*images=*/512,
       /*devices=*/256, /*ticks=*/16, /*quantized_fraction=*/0.75, /*fleet_floor=*/0.55,
       /*w_serve=*/0.3, /*w_mc=*/0.15, /*w_fleet=*/0.55},
  };
  return specs;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& s : workload_specs()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

std::unique_ptr<ftpim::Sequential> build_model(const WorkloadSpec& spec, std::uint64_t seed) {
  const std::uint64_t model_seed = ftpim::derive_seed(seed, 0x30de1);
  switch (spec.model) {
    case ModelKind::kSmallCnn: {
      ftpim::SmallCnnConfig cfg;
      cfg.image_size = spec.image_size;
      cfg.seed = model_seed;
      return ftpim::make_small_cnn(cfg);
    }
    case ModelKind::kResNet20:
      return ftpim::make_resnet20(/*classes=*/10, /*base_width=*/8, model_seed);
    case ModelKind::kMlp: {
      // MLP 16-24-4 behind a Flatten, so samples are [1, 4, 4] and the same
      // model can be served (InferenceServer takes [C, H, W] samples).
      ftpim::Rng rng(model_seed);
      auto net = std::make_unique<ftpim::Sequential>();
      net->emplace<ftpim::Flatten>();
      net->emplace<ftpim::Linear>(16, 24, rng, /*with_bias=*/true);
      net->emplace<ftpim::ReLU>();
      net->emplace<ftpim::Linear>(24, 4, rng, /*with_bias=*/true);
      return net;
    }
  }
  return nullptr;
}

std::unique_ptr<ftpim::InMemoryDataset> build_inputs(const WorkloadSpec& spec,
                                                     ftpim::Module& model, std::uint64_t seed) {
  const std::int64_t count = spec.images;
  if (spec.model != ModelKind::kMlp) {
    ftpim::SynthVisionConfig cfg;
    cfg.num_classes = 10;
    cfg.image_size = spec.image_size;
    cfg.samples = count;
    cfg.seed = ftpim::derive_seed(seed, 0xda7a);
    return ftpim::make_synthvision(cfg, /*sample_stream=*/1);
  }
  ftpim::Rng rng(ftpim::derive_seed(seed, 0x1a0));
  const ftpim::Shape shape{1, 4, 4};
  ftpim::Tensor batch(ftpim::Shape{count, 1, 4, 4});
  for (std::int64_t i = 0; i < batch.numel(); ++i) batch.data()[i] = rng.uniform(-1.0f, 1.0f);
  const ftpim::Tensor logits = model.forward(batch, /*training=*/false);
  auto data = std::make_unique<ftpim::InMemoryDataset>(shape, /*num_classes=*/4);
  data->reserve(count);
  for (std::int64_t i = 0; i < count; ++i) {
    ftpim::Tensor img(shape);
    std::copy(batch.data() + i * 16, batch.data() + (i + 1) * 16, img.data());
    data->add(std::move(img), ftpim::argmax_row(logits, i));
  }
  return data;
}

ftpim::qinfer::QuantizedEngineConfig engine_config(bool abft) {
  ftpim::qinfer::QuantizedEngineConfig cfg;
  cfg.abft.enabled = abft;
  return cfg;
}

namespace {

/// Order-dependent sums of the probe logits and the probes' predictions.
struct ProbeDigest {
  double sum = 0.0, sumsq = 0.0;
  std::vector<std::int64_t> predicted;
  bool operator==(const ProbeDigest&) const = default;
};

ProbeDigest digest_probes(const ProbeLogits& probes) {
  ProbeDigest d;
  for (const auto& replica : probes) {
    for (const ftpim::Tensor& y : replica) {
      std::int64_t best = 0;
      for (std::int64_t j = 0; j < y.numel(); ++j) {
        const double v = y.data()[j];
        d.sum += v;
        d.sumsq += v * v;
        if (y.data()[j] > y.data()[best]) best = j;
      }
      d.predicted.push_back(best);
    }
  }
  return d;
}

std::string json_list(const std::vector<double>& values) {
  std::string s = "[";
  for (std::size_t i = 0; i < values.size(); ++i) s += (i ? ", " : "") + json_number(values[i]);
  return s + "]";
}

/// The values a seed must reproduce exactly: replica probe logits, the
/// Monte-Carlo per-die accuracies, the fleet sweep's summary and deaths.
std::string reference_values_json(const ProbeDigest& probes, const std::vector<double>& accs,
                                  const ftpim::fleet::FleetSummary& fleet, std::int64_t deaths) {
  std::vector<double> predicted(probes.predicted.begin(), probes.predicted.end());
  return "{\"probe_logit_sum\": " + json_number(probes.sum) +
         ", \"probe_logit_sumsq\": " + json_number(probes.sumsq) +
         ", \"probe_predicted\": " + json_list(predicted) + ", \"mc_run_accs\": " +
         json_list(accs) + ", \"fleet\": {\"survivors\": " + std::to_string(fleet.survivors) +
         ", \"survival\": " + json_number(fleet.survival_fraction) +
         ", \"repairs\": " + std::to_string(fleet.repairs) +
         ", \"scrubs\": " + std::to_string(fleet.scrubs) +
         ", \"detections\": " + std::to_string(fleet.detections) +
         ", \"deaths\": " + std::to_string(deaths) + "}}";
}

/// Open-loop requests per latency chunk: the smallest sample with 10 beyond
/// its p99.
constexpr std::size_t kLatencyChunk = 1000;
/// Fewest latency chunks a run is cut into.
constexpr std::size_t kMinChunks = 8;
/// Quantiles of the "quiet end" of per-chunk latencies (see run_workload):
/// the 10th percentile of chunk tails, the 25th of chunk medians.
constexpr double kFastQ = 0.9;
constexpr double kFastMedianQ = 0.75;
/// The same for the closed-loop rate over rounds, of which there are only 2
/// to 5: the second best of five, so one lucky round does not decide it.
constexpr double kFastRoundQ = 0.75;

/// Rate the trace overhead is quoted on, from the workload's own phase:
/// dies/s, device-ticks/s, or for serving the inverse of the open-loop
/// median latency (a round's closed-loop rate swings by up to 2x).
double primary_rate(const WorkloadSpec& spec, double p50_ms, double mc, double fleet) {
  if (spec.w_mc >= spec.w_serve && spec.w_mc >= spec.w_fleet) return mc;
  if (spec.w_fleet >= spec.w_serve) return fleet;
  return p50_ms > 0.0 ? 1.0 / p50_ms : 0.0;
}

}  // namespace

Outcome run_workload(const RunOptions& o) {
  Outcome out;
  const WorkloadSpec& spec = o.spec;
  // A traced run is a warm-up round, an untraced round and a traced round,
  // so the last two can be compared warm; an untraced run is one round per
  // 4 s, 2 to 5 of them.
  // Every phase runs at least once per round, whatever its share of time,
  // so a short run is the same workload, measured less.
  const int rounds = o.trace ? 3 : std::clamp(static_cast<int>(o.seconds / 4.0), 2, 5);
  const double round_s = o.seconds / rounds;
  const int warmup = 32;

  std::vector<double> setup_s, sat_rps, mc_rates, fleet_rates, latency_ms, late_us;
  std::vector<double> round_primary;
  std::vector<double> first_accs;
  ProbeDigest first_probes;
  std::int64_t first_deaths = 0;
  ftpim::fleet::FleetSummary first_summary;
  std::vector<ftpim::fleet::TickAggregate> first_timeline;
  ServeRound traced_serve;
  std::vector<double> traced_ticks;
  Tracer tracer;
  MetricSet layer;

  std::unique_ptr<ftpim::Sequential> model;
  std::unique_ptr<ftpim::InMemoryDataset> inputs;
  ftpim::DefectEvalConfig dcfg;
  ftpim::fleet::FleetConfig fcfg;
  for (int r = 0; r < rounds; ++r) {
    const bool traced = o.trace && r == rounds - 1;
    Tracer* tr = traced ? &tracer : nullptr;

    const std::int64_t t0 = now_ns();
    model = build_model(spec, o.seed);
    inputs = build_inputs(spec, *model, o.seed);
    ftpim::serve::ServerConfig scfg = server_config(spec, o.seed);
    if (traced) install_batch_hook(scfg);
    auto server = std::make_unique<ftpim::serve::InferenceServer>(*model, scfg);
    const std::int64_t t1 = now_ns();
    // Untimed: the probes' direct forwards, the reference for served answers.
    const ProbeLogits probes = probe_replicas(*server, *inputs);
    const std::int64_t t2 = now_ns();
    // The workers read the override at every parallel_for, so it holds from
    // start to stop.
    ftpim::set_num_threads(spec.serve_threads);
    start_server(*server, *inputs, warmup, out);
    const double setup_core_s = static_cast<double>((t1 - t0) + (now_ns() - t2)) * 1e-9;
    check_served_probes(*server, *inputs, probes, out);
    dcfg = defect_eval_config(spec, o.seed);
    fcfg = fleet_config(spec, inputs->image_shape(), o.seed);

    // Half the serve time each: the open loop still has 8 or more chunks
    // everywhere (31 of 1000 requests on the serve workloads), and the
    // closed loop of mc_defect_eval and fleet_lifecycle lasts 0.9 s a round.
    const double serve_s = round_s * spec.w_serve;
    const std::int64_t first_id = warmup + kProbes;
    ServeRound sr = run_serve_phase(*server, *inputs, spec, ftpim::derive_seed(o.seed, 100 + r),
                                    serve_s * 0.5, serve_s * 0.5, first_id, tr, out);
    server.reset();
    ftpim::set_num_threads(0);
    out.attempted += sr.sent + first_id;
    out.failed += sr.failed;
    sat_rps.push_back(sr.sat_rps);
    latency_ms.insert(latency_ms.end(), sr.latency_ms.begin(), sr.latency_ms.end());
    late_us.insert(late_us.end(), sr.late_us.begin(), sr.late_us.end());

    const McPhase mp = run_mc_phase(*model, *inputs, dcfg, round_s * spec.w_mc, tr, out);
    out.attempted += mp.dies;
    mc_rates.insert(mc_rates.end(), mp.dies_per_s.begin(), mp.dies_per_s.end());

    const FleetPhase fp = run_fleet_phase(*model, fcfg, round_s * spec.w_fleet, tr, out);
    out.attempted += fp.device_ticks;
    fleet_rates.insert(fleet_rates.end(), fp.ticks_per_s.begin(), fp.ticks_per_s.end());
    setup_s.push_back(setup_core_s + fp.construct_s.front());

    const ProbeDigest digest = digest_probes(probes);
    if (r == 0) {
      first_accs = mp.run_accs;
      first_probes = digest;
      first_summary = fp.summary;
      first_deaths = fp.deaths;
      first_timeline = fp.timeline;
    } else {
      out.check(mp.run_accs == first_accs, "mc: per-die accuracies changed between rounds");
      out.check(digest == first_probes, "serve: replica probe logits changed between rounds");
      out.check(fp.summary.survivors == first_summary.survivors &&
                    fp.summary.repairs == first_summary.repairs &&
                    fp.summary.scrubs == first_summary.scrubs && fp.deaths == first_deaths,
                "fleet: the sweep summary changed between rounds");
    }
    const TailSummary round_lat = summarize_tail(sr.latency_ms);
    out.note("round" + std::to_string(r),
             "{\"sat_rps\": " + json_number(sr.sat_rps) + ", \"p50_ms\": " +
                 json_number(round_lat.p50) + ", \"p99_ms\": " + json_number(round_lat.tail) +
                 ", \"mc\": " + json_number(median(mp.dies_per_s)) + ", \"fleet\": " +
                 json_number(median(fp.ticks_per_s)) + ", \"sweeps\": " +
                 std::to_string(fp.ticks_per_s.size()) + "}");
    round_primary.push_back(primary_rate(spec, round_lat.p50, median(mp.dies_per_s),
                                         median(fp.ticks_per_s)));
    if (traced) {
      traced_serve = std::move(sr);
      traced_ticks = fp.tick_ms;
      layer.set("fleet.repairs", static_cast<double>(fp.summary.repairs));
      layer.set("fleet.scrubs", static_cast<double>(fp.summary.scrubs));
      layer.set("fleet.deaths", static_cast<double>(fp.deaths));
      layer.set("fleet.survival", fp.summary.survival_fraction);
    }
  }

  // Bit-identity checks, outside every timed section.
  check_mc_reference(*model, *inputs, dcfg, first_accs, o.trace ? &layer : nullptr, out);
  check_fleet_reference(*model, fcfg, first_timeline, std::min<std::int64_t>(fcfg.ticks, 4), out);

  // Open-loop latency is cut into kMinChunks or more chunks of consecutive
  // requests, 1000 each when the run has that many (p99 then has exactly 10
  // samples beyond it), otherwise an eighth of the sample each; the tail of
  // a chunk is the highest quantile it supports, at most p99.
  const TailSummary lat = summarize_tail(latency_ms);
  const TailSummary late = summarize_tail(late_us);
  const std::size_t chunk = std::min(kLatencyChunk, latency_ms.size() / kMinChunks);
  const std::optional<double> chunk_q = supported_tail_q(chunk);
  const bool chunked = chunk_q.has_value() && *chunk_q > 0.5;
  out.note("latency_samples", std::to_string(lat.n));
  out.note("latency_chunk", std::to_string(chunked ? chunk : lat.n));
  out.note("p99_quantile", json_number(chunked ? *chunk_q : lat.tail_q));
  if (chunked) {
    out.note("chunk_tails_ms", json_list(chunk_quantiles(latency_ms, chunk, *chunk_q)));
  }
  out.note("generator_late_us_p50", json_number(late.p50));
  out.note("generator_late_us_tail", json_number(late.tail));
  out.note("rounds", std::to_string(rounds));
  // Compared by run.py with the committed reference for this seed.
  out.note("reference_values",
           reference_values_json(first_probes, first_accs, first_summary, first_deaths));

  if (!o.trace) {
    out.metrics.set("setup_s", median(setup_s));
    out.metrics.set("peak_rss_mb", peak_rss_mib());
    // Failures anywhere in the run, per open-loop request scheduled: the
    // schedule is fixed by the seed, where the closed-loop, Monte-Carlo and
    // fleet work done varies with speed. The add-one keeps it above zero.
    out.metrics.set("failed_frac", static_cast<double>(out.failed + 1) /
                                       static_cast<double>(late_us.size() + 1));
    // Host interference comes and goes for seconds at a time and only ever
    // slows serving down, so the serve figures report their quiet end: the
    // 75th percentile over rounds of the sustained closed-loop rate, the
    // 10th percentile over the chunks above of each chunk's tail, and the
    // 25th of each chunk's median. Chunk tails fall into a quiet and a
    // stalled group, so only the quiet end repeats; chunk medians do not
    // split that way, and at the 8 chunks of mc_defect_eval their 10th
    // percentile is almost the minimum (p50_ms spread 0.07-0.22 over six to
    // ten runs there, 0.03-0.10 at the 25th).
    // Monte-Carlo calls and fleet sweeps are many and mostly alike, with
    // rare outliers either way: the median over the run's calls and sweeps.
    out.metrics.set("sat_rps", quantile_of(sat_rps, kFastRoundQ));
    out.metrics.set("p50_ms", chunked ? quantile_of(chunk_quantiles(latency_ms, chunk, 0.5),
                                                    1.0 - kFastMedianQ)
                                      : lat.p50);
    out.metrics.set("p99_ms", chunked ? quantile_of(chunk_quantiles(latency_ms, chunk, *chunk_q),
                                                    1.0 - kFastQ)
                                      : lat.tail);
    out.metrics.set("mc_runs_per_s", median(mc_rates));
    out.metrics.set("fleet_ticks_per_s", median(fleet_rates));
    return out;
  }

  // --- traced run: per-layer metrics ---
  const TailSummary qw = summarize_tail(traced_serve.queue_wait_us);
  layer.set("serve.queue_wait_us.p50", qw.p50);
  layer.set("serve.queue_wait_us.p99", qw.tail);
  layer.set("serve.batch_service_us.p50", summarize_tail(traced_serve.batch_service_us).p50);
  layer.set("serve.batch_size.mean", traced_serve.batch_size_mean);
  layer.set("serve.gen_late_us.p99", summarize_tail(traced_serve.late_us).tail);
  layer.set("serve.sent", static_cast<double>(traced_serve.sent));
  layer.set("serve.served", static_cast<double>(traced_serve.served));
  layer.set("serve.failed", static_cast<double>(traced_serve.failed));
  const ftpim::serve::ServerStats& st = traced_serve.stats;
  layer.set("serve.canary_batches", static_cast<double>(st.canary_batches));
  layer.set("serve.scrubs", static_cast<double>(st.abft_scrubs));
  layer.set("serve.refreshes", static_cast<double>(st.periodic_refreshes));
  layer.set("serve.repairs", static_cast<double>(st.repairs));
  layer.set("serve.aged_cells", static_cast<double>(st.aged_cells));
  layer.set("abft.detections", static_cast<double>(st.abft_detections));
  layer.set("abft.flagged_tiles", static_cast<double>(st.abft_flagged_tiles));
  const TailSummary ticks = summarize_tail(traced_ticks);
  layer.set("fleet.tick_ms.p50", ticks.p50);
  layer.set("fleet.tick_ms.p99", ticks.tail);
  out.note("fleet_tick_quantile", json_number(ticks.tail_q));
  out.note("queue_wait_quantile", json_number(qw.tail_q));

  run_layer_probes(spec, *model, *inputs, o.seed, layer, out);

  // The last two rounds: untraced, then traced, on the same inputs and load.
  const double untraced = round_primary[round_primary.size() - 2];
  const double traced = round_primary.back();
  layer.set("trace.overhead_pct", traced > 0.0 ? (untraced / traced - 1.0) * 100.0 : 0.0);
  layer.set("trace.spans", static_cast<double>(tracer.size()));
  for (const auto& [name, us] : tracer.self_time_us()) {
    out.note("self_time_us." + name, json_number(us));
  }
  if (!o.trace_path.empty()) tracer.write_jsonl(o.trace_path);
  out.metrics = layer;
  return out;
}

}  // namespace perfbench
