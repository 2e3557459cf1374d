#include "src/reram/fault_injector.hpp"

#include "src/common/check.hpp"
#include "src/reram/quantizer.hpp"

namespace ftpim {
namespace {

float tensor_wmax(const Tensor& weights) {
  const float m = weights.abs_max();
  return m > 0.0f ? m : 1.0f;  // all-zero tensor: any scale works
}

/// Shared kernel: reads clean weights from `src`, writes the faulted
/// read-back to `dst` (src == dst is the in-place path). Every element of
/// dst is written, so a copy destination needs no pre-fill.
InjectionStats fault_kernel(const float* src, float* dst, std::int64_t n,
                            const DifferentialMapper& mapper, const ConductanceQuantizer& quant,
                            const InjectorConfig& config, const StuckAtFaultModel& model,
                            Rng& rng, float* mask) {
  InjectionStats stats;
  stats.cells = 2 * n;
  const float g_min = config.range.g_min;
  const float g_max = config.range.g_max;
  for (std::int64_t i = 0; i < n; ++i) {
    const FaultType f_pos = model.sample(rng);
    const FaultType f_neg = model.sample(rng);
    if (f_pos == FaultType::kNone && f_neg == FaultType::kNone) {
      if (config.quant_levels >= 2) {
        // Still pass through programming quantization so the fault-free path
        // matches device resolution.
        CellPair cells = mapper.to_cells(src[i]);
        cells.g_pos = quant.quantize(cells.g_pos);
        cells.g_neg = quant.quantize(cells.g_neg);
        dst[i] = mapper.to_weight(cells);
      } else {
        dst[i] = src[i];
      }
      continue;
    }
    CellPair cells = mapper.to_cells(src[i]);
    if (config.quant_levels >= 2) {
      cells.g_pos = quant.quantize(cells.g_pos);
      cells.g_neg = quant.quantize(cells.g_neg);
    }
    if (f_pos != FaultType::kNone) {
      cells.g_pos = (f_pos == FaultType::kStuckOff) ? g_min : g_max;
      ++stats.faulted_cells;
    }
    if (f_neg != FaultType::kNone) {
      cells.g_neg = (f_neg == FaultType::kStuckOff) ? g_min : g_max;
      ++stats.faulted_cells;
    }
    const float new_w = mapper.to_weight(cells);
    if (new_w != src[i]) {
      ++stats.affected_weights;
      if (mask != nullptr) mask[i] = 1.0f;
    }
    dst[i] = new_w;
  }
  return stats;
}

/// Shapes `buffer` like `reference`, reusing its storage when possible, and
/// zero-fills it (hit masks must start clean).
void reset_like(Tensor& buffer, const Tensor& reference) {
  if (buffer.shape() != reference.shape()) {
    buffer = Tensor(reference.shape());
  } else {
    buffer.zero();
  }
}

void accumulate(InjectionStats& total, const InjectionStats& s) {
  total.cells += s.cells;
  total.faulted_cells += s.faulted_cells;
  total.affected_weights += s.affected_weights;
}

}  // namespace

InjectionStats apply_faults_to_copy(const Tensor& src, Tensor& dst,
                                    const StuckAtFaultModel& model, const InjectorConfig& config,
                                    Rng& rng, Tensor* hit_mask) {
  FTPIM_CHECK(&dst != &src, "apply_faults_to_copy: dst must not alias src (use apply_stuck_at_faults)");
  FTPIM_CHECK(hit_mask == nullptr || (hit_mask != &dst && hit_mask != &src),
              "apply_faults_to_copy: hit_mask must not alias src/dst");
  config.range.validate();
  FTPIM_CHECK(config.quant_levels == 0 || config.quant_levels >= 2,
              "InjectorConfig: quant_levels must be 0 (analog) or >= 2");
  if (dst.shape() != src.shape()) dst = Tensor(src.shape());
  if (hit_mask != nullptr) reset_like(*hit_mask, src);
  const DifferentialMapper mapper(config.range, tensor_wmax(src));
  const ConductanceQuantizer quant(config.range, config.quant_levels);
  return fault_kernel(src.data(), dst.data(), src.numel(), mapper, quant, config, model, rng,
                      hit_mask != nullptr ? hit_mask->data() : nullptr);
}

InjectionStats apply_stuck_at_faults(Tensor& weights, const StuckAtFaultModel& model,
                                     const InjectorConfig& config, Rng& rng, Tensor* hit_mask) {
  if (hit_mask != nullptr) reset_like(*hit_mask, weights);
  const DifferentialMapper mapper(config.range, tensor_wmax(weights));
  const ConductanceQuantizer quant(config.range, config.quant_levels);
  return fault_kernel(weights.data(), weights.data(), weights.numel(), mapper, quant, config,
                      model, rng, hit_mask != nullptr ? hit_mask->data() : nullptr);
}

InjectionStats inject_into_model(Module& model_root, const StuckAtFaultModel& model,
                                 const InjectorConfig& config, Rng& rng) {
  InjectionStats total;
  for (Param* p : parameters_of(model_root)) {
    if (p->kind != ParamKind::kCrossbarWeight) continue;
    accumulate(total, apply_stuck_at_faults(p->value, model, config, rng));
  }
  return total;
}

std::int64_t crossbar_cell_count(Module& model_root) {
  std::int64_t cells = 0;
  for (Param* p : parameters_of(model_root)) {
    if (p->kind == ParamKind::kCrossbarWeight) cells += 2 * p->value.numel();
  }
  return cells;
}

InjectionStats apply_defect_map_to_model(Module& model_root, const DefectMap& map,
                                         const InjectorConfig& config) {
  config.range.validate();
  FTPIM_CHECK(config.quant_levels == 0 || config.quant_levels >= 2,
              "InjectorConfig: quant_levels must be 0 (analog) or >= 2");
  std::vector<Param*> params;
  std::int64_t total_cells = 0;
  for (Param* p : parameters_of(model_root)) {
    if (p->kind != ParamKind::kCrossbarWeight) continue;
    params.push_back(p);
    total_cells += 2 * p->value.numel();
  }
  FTPIM_CHECK_EQ(map.cell_count(), total_cells,
                 "apply_defect_map_to_model: map describes %lld cells, model has %lld",
                 static_cast<long long>(map.cell_count()), static_cast<long long>(total_cells));

  InjectionStats stats;
  stats.cells = total_cells;
  const std::vector<CellFault>& faults = map.faults();
  const float g_min = config.range.g_min;
  const float g_max = config.range.g_max;
  std::size_t k = 0;
  std::int64_t cell_off = 0;
  std::vector<std::int64_t> faulted_weights;  // per-param, for the quantized clean path
  for (Param* p : params) {
    Tensor& w = p->value;
    const std::int64_t n = w.numel();
    const std::int64_t cell_hi = cell_off + 2 * n;
    const DifferentialMapper mapper(config.range, tensor_wmax(w));
    const ConductanceQuantizer quant(config.range, config.quant_levels);
    faulted_weights.clear();
    while (k < faults.size() && faults[k].cell_index < cell_hi) {
      const std::int64_t i = (faults[k].cell_index - cell_off) / 2;
      CellPair cells = mapper.to_cells(w[i]);
      if (config.quant_levels >= 2) {
        cells.g_pos = quant.quantize(cells.g_pos);
        cells.g_neg = quant.quantize(cells.g_neg);
      }
      // Consume every fault landing on weight i (its positive and/or
      // negative cell) before reading the pair back.
      while (k < faults.size() && faults[k].cell_index < cell_hi &&
             (faults[k].cell_index - cell_off) / 2 == i) {
        const bool positive = ((faults[k].cell_index - cell_off) % 2) == 0;
        const float pinned = faults[k].type == FaultType::kStuckOff ? g_min : g_max;
        (positive ? cells.g_pos : cells.g_neg) = pinned;
        ++stats.faulted_cells;
        ++k;
      }
      const float new_w = mapper.to_weight(cells);
      if (new_w != w[i]) ++stats.affected_weights;
      w[i] = new_w;
      if (config.quant_levels >= 2) faulted_weights.push_back(i);
    }
    if (config.quant_levels >= 2) {
      // Parity with fault_kernel: the fault-free path still passes through
      // programming quantization so map-based and RNG-based deployments see
      // the same device resolution.
      std::size_t fw = 0;
      for (std::int64_t i = 0; i < n; ++i) {
        if (fw < faulted_weights.size() && faulted_weights[fw] == i) {
          ++fw;
          continue;
        }
        CellPair cells = mapper.to_cells(w[i]);
        cells.g_pos = quant.quantize(cells.g_pos);
        cells.g_neg = quant.quantize(cells.g_neg);
        w[i] = mapper.to_weight(cells);
      }
    }
    cell_off = cell_hi;
  }
  return stats;
}

FaultInjectionSession::FaultInjectionSession(Module& model_root) {
  for (Param* p : parameters_of(model_root)) {
    if (p->kind == ParamKind::kCrossbarWeight) params_.push_back(p);
  }
  shadow_.resize(params_.size());
  hit_masks_.resize(params_.size());
}

const InjectionStats& FaultInjectionSession::inject(const StuckAtFaultModel& model,
                                                    const InjectorConfig& config, Rng& rng) {
  // A session is single-owner state (one per worker clone in the parallel
  // evaluator); concurrent inject() would corrupt the swap protocol. The
  // exchange is cheap and catches misuse in every build type.
  const bool was_busy = busy_.exchange(true, std::memory_order_acq_rel);
  FTPIM_CHECK(!was_busy, "FaultInjectionSession::inject: concurrent use of one session");
  // Clears the busy flag on every exit path, including a throwing copy phase.
  struct BusyClear {
    std::atomic<bool>& flag;
    ~BusyClear() { flag.store(false, std::memory_order_release); }
  } busy_clear{busy_};
  restore();
  stats_ = InjectionStats{};
  // Phase 1 (may allocate on first use): faulted copies into the shadows,
  // model untouched — an exception here leaves the clean weights live.
  for (std::size_t k = 0; k < params_.size(); ++k) {
    accumulate(stats_,
               apply_faults_to_copy(params_[k]->value, shadow_[k], model, config, rng,
                                    &hit_masks_[k]));
  }
  // Phase 2 (noexcept): publish — shadows now hold the clean tensors.
  for (std::size_t k = 0; k < params_.size(); ++k) {
    std::swap(params_[k]->value, shadow_[k]);
  }
  injected_ = true;
  return stats_;
}

void FaultInjectionSession::restore() noexcept {
  if (!injected_) return;
  for (std::size_t k = 0; k < params_.size(); ++k) std::swap(params_[k]->value, shadow_[k]);
  injected_ = false;
}

FaultInjectionSession::~FaultInjectionSession() { restore(); }

WeightFaultGuard::WeightFaultGuard(Module& model_root, const StuckAtFaultModel& model,
                                   const InjectorConfig& config, Rng& rng)
    : session_(model_root) {
  session_.inject(model, config, rng);
}

}  // namespace ftpim
