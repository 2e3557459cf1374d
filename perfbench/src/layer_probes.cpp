// Per-layer probes of a traced run. Every number is taken from outside the
// library, by timing calls into a module's public functions:
//
//   common   an empty parallel_for_chunks over num_threads() chunks
//   nn       one batch replayed through a clone of replica 0, leaf by leaf in
//            modules_of() order, against the whole-model forward
//   kernels  conv_forward_packed on the model's conv geometries and the
//            selected qmvm kernel on the int8 tile shapes
//   qinfer   a timing MvmHook decorator around every installed engine hook
//   pool     the public ReplicaPool mutators on a standalone quantized pool
//
// In a residual network the leaf chain skips the block's shortcut add and
// final ReLU (they are not modules), which is what nn.leaf_coverage shows.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/linear.hpp"
#include "src/reram/aging.hpp"
#include "src/reram/qinfer/deploy.hpp"
#include "src/serve/replica_pool.hpp"
#include "src/tensor/kernels/conv_kernels.hpp"
#include "src/tensor/kernels/qgemm.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using ftpim::Module;
using ftpim::Tensor;

constexpr int kReps = 5;

double region_us() {
  const auto chunks = static_cast<std::size_t>(ftpim::num_threads());
  std::vector<double> samples;
  for (int i = 0; i < 200; ++i) {
    const std::int64_t t0 = now_ns();
    ftpim::parallel_for_chunks(0, chunks, [](std::size_t, std::size_t) {}, /*min_parallel_trip=*/1);
    samples.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  return median(samples);
}

/// Leaf kind reported by the nn.* metrics ("" = not a reported kind).
std::string leaf_kind(const std::string& type) {
  if (type == "Conv2d") return "conv2d";
  if (type == "BatchNorm2d") return "batchnorm";
  if (type == "ReLU" || type == "LeakyReLU" || type == "Tanh") return "relu";
  if (type == "MaxPool2d" || type == "GlobalAvgPool" || type == "Flatten") return "pool";
  if (type == "Linear") return "linear";
  return "";
}

bool is_leaf(Module* m) {
  std::vector<Module*> below;
  m->collect_modules(below);
  return below.size() == 1;
}

/// First `count` inputs stacked into one [count, ...] batch.
Tensor stack_inputs(const ftpim::InMemoryDataset& inputs, std::int64_t count) {
  const ftpim::Shape sample = inputs.image_shape();
  ftpim::Shape shape{count};
  shape.insert(shape.end(), sample.begin(), sample.end());
  Tensor batch(shape);
  const std::int64_t per = ftpim::shape_numel(sample);
  for (std::int64_t i = 0; i < count; ++i) {
    const Tensor img = inputs.get(i % inputs.size()).image;
    std::memcpy(batch.data() + i * per, img.data(), static_cast<std::size_t>(per) * sizeof(float));
  }
  return batch;
}

struct ConvSite {
  ftpim::Conv2d* conv;
  ftpim::Shape input;  ///< [N, C, H, W] seen in the replay
  ftpim::Shape output;
};

/// Replays `batch` through `model` leaf by leaf and as a whole. Each
/// top-level child gets its true input; a composite child (a residual block)
/// has its leaves replayed in modules_of() order on that input, and its own
/// forward, timed too, then produces the next child's input. That forward
/// minus its leaves is the block's join (shortcut, add, final ReLU), which
/// no leaf covers.
void replay_nn(ftpim::Sequential& model, const Tensor& batch, MetricSet& layer,
               std::vector<ConvSite>& convs) {
  (void)model.forward(batch, false);  // warm caches and arenas
  std::map<std::string, std::vector<double>> kind_us;
  std::vector<double> forward_us, leaf_total_us, allocs;
  auto time_forward = [&] {
    arm_allocation_count(true);
    const std::uint64_t a0 = allocation_count();
    const std::int64_t t0 = now_ns();
    (void)model.forward(batch, false);
    const std::int64_t t1 = now_ns();
    arm_allocation_count(false);
    allocs.push_back(static_cast<double>(allocation_count() - a0));
    forward_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
  };
  auto time_leaves = [&](bool record_convs) {
    std::map<std::string, double> this_rep;
    double total = 0.0;
    auto run_leaf = [&](Module* leaf, const Tensor& in) {
      const std::int64_t a = now_ns();
      Tensor y = leaf->forward(in, false);
      const double us = static_cast<double>(now_ns() - a) * 1e-3;
      total += us;
      this_rep[leaf_kind(leaf->type_name())] += us;
      if (record_convs && leaf->type_name() == "Conv2d") {
        convs.push_back({static_cast<ftpim::Conv2d*>(leaf), in.shape(), y.shape()});
      }
      return y;
    };
    Tensor x = batch;
    for (std::size_t c = 0; c < model.size(); ++c) {
      Module* child = &model.child(c);
      if (is_leaf(child)) {
        x = run_leaf(child, x);
        continue;
      }
      const double leaves_before = total;
      Tensor inner = x;
      for (Module* m : ftpim::modules_of(*child)) {
        if (is_leaf(m)) inner = run_leaf(m, inner);
      }
      const std::int64_t a = now_ns();
      x = child->forward(x, false);
      const double block_us = static_cast<double>(now_ns() - a) * 1e-3;
      this_rep["residual_join"] += std::max(0.0, block_us - (total - leaves_before));
    }
    for (const char* k : {"conv2d", "batchnorm", "relu", "pool", "linear", "residual_join"}) {
      kind_us[k].push_back(this_rep[k]);
    }
    leaf_total_us.push_back(total);
  };
  // Alternate which of the two goes first, so neither always runs warm.
  for (int rep = 0; rep < 2 * kReps + 1; ++rep) {
    if (rep % 2 == 0) {
      time_forward();
      time_leaves(rep == 0);
    } else {
      time_leaves(false);
      time_forward();
    }
  }
  for (const auto& [kind, samples] : kind_us) layer.set("nn." + kind + "_us", median(samples));
  const double fwd = median(forward_us);
  layer.set("nn.forward_us", fwd);
  layer.set("nn.leaf_coverage", fwd > 0.0 ? median(leaf_total_us) / fwd : 0.0);
  layer.set("nn.allocs_per_forward", median(allocs));
}

/// GFLOP/s of conv_forward_packed over the replayed conv geometries (one
/// image each, as Conv2d calls it). 0 when the model has no convolution.
double conv_gflops(const std::vector<ConvSite>& convs) {
  double flops = 0.0, seconds = 0.0;
  for (const ConvSite& site : convs) {
    ftpim::ConvGeometry g;
    g.in_c = site.input[1];
    g.in_h = site.input[2];
    g.in_w = site.input[3];
    g.kernel_h = g.kernel_w = site.conv->kernel();
    g.stride_h = g.stride_w = site.conv->stride();
    // Conv2d does not expose its padding; take the one that reproduces the
    // replayed output size.
    for (std::int64_t p = 0; p <= g.kernel_h; ++p) {
      g.pad_h = g.pad_w = p;
      if (g.out_h() == site.output[2]) break;
    }
    const std::int64_t out_c = site.conv->out_channels();
    Tensor image(ftpim::Shape{g.in_c, g.in_h, g.in_w}, 0.5f);
    std::vector<float> out(static_cast<std::size_t>(out_c * g.col_cols()));
    const float* w = site.conv->weight().value.data();
    ftpim::kernels::conv_forward_packed(g, w, out_c, image.data(), out.data());  // warm
    std::vector<double> samples;
    for (int rep = 0; rep < kReps; ++rep) {
      const std::int64_t t0 = now_ns();
      ftpim::kernels::conv_forward_packed(g, w, out_c, image.data(), out.data());
      samples.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    }
    flops += 2.0 * static_cast<double>(out_c * g.col_rows() * g.col_cols());
    seconds += median(samples);
  }
  return seconds > 0.0 ? flops / seconds * 1e-9 : 0.0;
}

/// MvmHook decorator: times every mvm_batch call of the hook it wraps.
class TimingHook final : public ftpim::MvmHook {
 public:
  explicit TimingHook(const ftpim::MvmHook* inner) : inner_(inner) {}
  void mvm_batch(const float* x, std::int64_t batch, float* y) const override {
    const std::int64_t t0 = now_ns();
    inner_->mvm_batch(x, batch, y);
    ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
    calls_.fetch_add(1, std::memory_order_relaxed);
    rows_.store(batch, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t in_features() const noexcept override {
    return inner_->in_features();
  }
  [[nodiscard]] std::int64_t out_features() const noexcept override {
    return inner_->out_features();
  }
  [[nodiscard]] std::int64_t ns() const { return ns_.load(); }
  [[nodiscard]] std::int64_t calls() const { return calls_.load(); }
  [[nodiscard]] std::int64_t rows() const { return rows_.load(); }
  void reset() {
    ns_ = 0;
    calls_ = 0;
  }

 private:
  const ftpim::MvmHook* inner_;  ///< owned by the deployment, which outlives this
  mutable std::atomic<std::int64_t> ns_{0}, calls_{0}, rows_{0};
};

/// Wraps every engine hook of `model` (installed by `deployment`).
std::vector<std::shared_ptr<TimingHook>> decorate(Module& model) {
  std::vector<std::shared_ptr<TimingHook>> hooks;
  for (Module* m : ftpim::modules_of(model)) {
    if (auto* conv = dynamic_cast<ftpim::Conv2d*>(m); conv != nullptr && conv->mvm_hook()) {
      hooks.push_back(std::make_shared<TimingHook>(conv->mvm_hook()));
      conv->set_mvm_hook(hooks.back());
    } else if (auto* lin = dynamic_cast<ftpim::Linear*>(m); lin != nullptr && lin->mvm_hook()) {
      hooks.push_back(std::make_shared<TimingHook>(lin->mvm_hook()));
      lin->set_mvm_hook(hooks.back());
    }
  }
  return hooks;
}

/// Single-thread time of the selected qmvm kernel on one mvm_batch call of
/// `engine` with `rows` activation rows: the same tile walk, same operand
/// shapes (m = rows, k = wordlines of the tile, n = packed columns).
void time_qmvm(const ftpim::qinfer::QuantizedCrossbarEngine& engine, std::int64_t rows,
               double& seconds, double& ops) {
  namespace k = ftpim::kernels;
  const auto& cfg = engine.config();
  // Packed width as the engine lays it out: data columns plus checksum digit
  // columns, rounded up to a multiple of 16 when ABFT is on.
  std::int64_t pc = cfg.tile_cols + engine.checksum_columns();
  if (engine.checksum_columns() > 0) pc = (pc + 15) & ~std::int64_t{15};
  const std::int64_t in = engine.in_features();
  const std::int64_t stride = in + (in & 1);
  ftpim::Rng rng(0x9b);
  std::vector<std::int8_t> a(static_cast<std::size_t>(rows * stride));
  for (auto& v : a) v = static_cast<std::int8_t>(static_cast<int>(rng.uniform_int(255)) - 127);
  std::vector<std::int32_t> c(static_cast<std::size_t>(rows * pc));
  const k::QmvmKernel kern = k::select_qmvm_kernel(k::active_kernel_level());
  std::vector<std::vector<std::uint8_t>> packed;
  std::vector<std::int64_t> ks;
  for (std::int64_t rt = 0; rt < engine.row_tile_count(); ++rt) {
    const std::int64_t kk = std::min(cfg.tile_rows, in - rt * cfg.tile_rows);
    std::vector<std::uint8_t> levels(static_cast<std::size_t>(kk * pc));
    for (auto& v : levels) v = static_cast<std::uint8_t>(rng.uniform_int(cfg.levels));
    packed.emplace_back(k::packed_levels_bytes(kk, pc));
    k::pack_levels(levels.data(), kk, pc, pc, packed.back().data());
    ks.push_back(kk);
  }
  auto one_call = [&] {
    for (std::size_t rt = 0; rt < ks.size(); ++rt) {
      for (std::int64_t ct = 0; ct < engine.col_tile_count(); ++ct) {
        kern(rows, pc, ks[rt], a.data() + static_cast<std::int64_t>(rt) * cfg.tile_rows, stride,
             packed[rt].data(), c.data(), pc);
      }
    }
  };
  one_call();
  std::vector<double> samples;
  for (int rep = 0; rep < kReps; ++rep) {
    const std::int64_t t0 = now_ns();
    one_call();
    samples.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  seconds = median(samples);
  ops = 0.0;
  for (const std::int64_t kk : ks) {
    ops += 2.0 * static_cast<double>(rows * pc * kk * engine.col_tile_count());
  }
}

/// qinfer.* and kernels.qmvm_gops: replay `batch` through an int8 + ABFT
/// deployment of `model` with every hook decorated.
void replay_qinfer(Module& model, const Tensor& batch, MetricSet& layer) {
  const auto deployment = ftpim::qinfer::deploy_quantized(model, engine_config(/*abft=*/true));
  const auto hooks = decorate(model);
  (void)model.forward(batch, false);
  for (const auto& h : hooks) h->reset();
  for (int rep = 0; rep < kReps; ++rep) (void)model.forward(batch, false);
  double mvm_s = 0.0, kernel_s = 0.0, kernel_ops = 0.0;
  std::int64_t calls = 0;
  for (std::size_t i = 0; i < hooks.size(); ++i) {
    if (hooks.size() != deployment->layer_count() ||
        deployment->engine(i).in_features() != hooks[i]->in_features()) {
      throw std::logic_error("perfbench: decorated hooks do not match the deployment's layers");
    }
    double s = 0.0, ops = 0.0;
    time_qmvm(deployment->engine(i), hooks[i]->rows(), s, ops);
    mvm_s += static_cast<double>(hooks[i]->ns()) * 1e-9;
    kernel_s += s * static_cast<double>(hooks[i]->calls());
    kernel_ops += ops * static_cast<double>(hooks[i]->calls());
    calls += hooks[i]->calls();
  }
  layer.set("qinfer.mvm_batch_us", calls > 0 ? mvm_s / static_cast<double>(calls) * 1e6 : 0.0);
  layer.set("qinfer.epilogue_share", mvm_s > 0.0 ? (mvm_s - kernel_s) / mvm_s : 0.0);
  layer.set("kernels.qmvm_gops", kernel_s > 0.0 ? kernel_ops / kernel_s * 1e-9 : 0.0);
  // Uninstall the decorators before the deployment removes its own hooks.
  for (Module* m : ftpim::modules_of(model)) {
    if (auto* conv = dynamic_cast<ftpim::Conv2d*>(m)) conv->set_mvm_hook(nullptr);
    if (auto* lin = dynamic_cast<ftpim::Linear*>(m)) lin->set_mvm_hook(nullptr);
  }
}

/// pool.*: the ReplicaPool mutators on a standalone one-replica pool with
/// the fleet's quantized device config.
void probe_pool(const WorkloadSpec& spec, const Module& model, const Tensor& batch,
                std::uint64_t seed, MetricSet& layer) {
  namespace serve = ftpim::serve;
  serve::ReplicaPoolConfig cfg;
  cfg.num_replicas = 1;
  cfg.p_sa = 0.01;
  cfg.seed = ftpim::derive_seed(seed, 0x9001);
  cfg.engine = serve::ReplicaEngine::kQuantized;
  cfg.quantized = fleet_config(spec, ftpim::Shape{1}, seed).quantized;
  serve::ReplicaPool pool(model, cfg);
  ftpim::AgingConfig aging_cfg;
  aging_cfg.p_new_per_interval = 1e-3;
  aging_cfg.interval_batches = 16;
  aging_cfg.seed = ftpim::derive_seed(seed, 0x9002);
  const ftpim::AgingModel aging(aging_cfg);
  const ftpim::StuckAtFaultModel upset(0.01);
  std::vector<double> repair, refresh, scrub, age;
  auto timed = [](std::vector<double>& into, auto&& fn) {
    const std::int64_t t0 = now_ns();
    fn();
    into.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  };
  for (int rep = 0; rep < kReps; ++rep) {
    timed(repair, [&] { pool.repair(0); });
    timed(age, [&] { (void)pool.advance_aging(0, aging, rep + 1); });
    // A transient upset the checksums catch, then the scrub that heals it.
    pool.deployment(0)->apply_device_defects(upset, cfg.seed, static_cast<std::uint64_t>(rep));
    (void)pool.replica(0).forward(batch, false);
    const auto reports = pool.take_abft_reports(0);
    timed(scrub, [&] { (void)pool.scrub(0, reports); });
    timed(refresh, [&] { (void)pool.refresh(0); });
  }
  layer.set("pool.repair_us", median(repair));
  layer.set("pool.refresh_us", median(refresh));
  layer.set("pool.scrub_us", median(scrub));
  layer.set("pool.advance_aging_us", median(age));
}

}  // namespace

void run_layer_probes(const WorkloadSpec& spec, const Module& model,
                      const ftpim::InMemoryDataset& inputs, std::uint64_t seed, MetricSet& layer,
                      Outcome& out) {
  layer.set("parallel.region_us", region_us());

  // Replica 0 of the workload's serving pool: its defect map, its datapath.
  const ftpim::serve::ServerConfig scfg = server_config(spec, seed);
  ftpim::serve::ReplicaPool pool(model, scfg.pool);
  const std::int64_t batch_rows = spec.model == ModelKind::kResNet20 ? 64 : 16;
  const Tensor batch = stack_inputs(inputs, batch_rows);

  std::unique_ptr<Module> replica = pool.replica(0).clone();
  std::unique_ptr<ftpim::qinfer::QuantizedDeployment> deployment;
  if (spec.quantized) {
    deployment = ftpim::qinfer::deploy_quantized(*replica, scfg.pool.quantized);
    deployment->apply_defect_map(pool.defect_map(0));
  }
  std::vector<ConvSite> convs;
  auto* seq = dynamic_cast<ftpim::Sequential*>(replica.get());
  if (seq == nullptr) throw std::logic_error("perfbench: workload models are Sequential");
  replay_nn(*seq, batch, layer, convs);
  layer.set("kernels.conv_fwd_gflops", conv_gflops(convs));
  deployment.reset();

  std::unique_ptr<Module> qreplica = pool.replica(0).clone();
  replay_qinfer(*qreplica, batch, layer);
  probe_pool(spec, model, batch, seed, layer);
  out.check(layer.get("nn.leaf_coverage") > 0.0, "nn: replay produced no leaf time");
}

}  // namespace perfbench
