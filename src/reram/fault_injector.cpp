#include "src/reram/fault_injector.hpp"

#include "src/common/check.hpp"

namespace ftpim {
namespace {

void validate(const InjectorConfig& config) {
  config.range.validate();
  FTPIM_CHECK(config.quant_levels == 0 || config.quant_levels >= 2,
              "InjectorConfig: quant_levels must be 0 (analog) or >= 2");
}

}  // namespace

InjectionStats apply_stuck_at_faults(const Tensor& src, Tensor& dst,
                                     const StuckAtFaultModel& model, const InjectorConfig& config,
                                     Rng& rng, Tensor* hit_mask) {
  FTPIM_CHECK(hit_mask == nullptr || (hit_mask != &dst && hit_mask != &src),
              "apply_stuck_at_faults: hit_mask must not alias src/dst");
  validate(config);
  const DifferentialMapper mapper(config.range, tensor_w_max(src));
  const ConductanceQuantizer quant(config.range, config.quant_levels);
  if (dst.shape() != src.shape()) dst = Tensor(src.shape());
  float* mask = nullptr;
  if (hit_mask != nullptr) {
    // Hit masks must start clean; reuse the storage when the shape matches.
    if (hit_mask->shape() != src.shape()) {
      *hit_mask = Tensor(src.shape());
    } else {
      hit_mask->zero();
    }
    mask = hit_mask->data();
  }
  // Every element of dst is written (src == dst reads each weight before
  // overwriting it), so a copy destination needs no pre-fill.
  const float* in = src.data();
  float* out = dst.data();
  InjectionStats stats;
  stats.cells = 2 * src.numel();
  for (std::int64_t i = 0; i < src.numel(); ++i) {
    const FaultType f_pos = model.sample(rng);
    const FaultType f_neg = model.sample(rng);
    const float w = in[i];
    const float read = stuck_pair_readback(w, f_pos, f_neg, mapper, quant);
    if (f_pos != FaultType::kNone || f_neg != FaultType::kNone) {
      stats.faulted_cells += (f_pos != FaultType::kNone) + (f_neg != FaultType::kNone);
      if (read != w) {
        ++stats.affected_weights;
        if (mask != nullptr) mask[i] = 1.0f;
      }
    }
    out[i] = read;
  }
  return stats;
}

InjectionStats inject_into_model(Module& model_root, const StuckAtFaultModel& model,
                                 const InjectorConfig& config, Rng& rng) {
  InjectionStats total;
  for (Param* p : crossbar_params(model_root)) {
    total += apply_stuck_at_faults(p->value, p->value, model, config, rng);
  }
  return total;
}

std::int64_t crossbar_cell_count(Module& model_root) {
  std::int64_t cells = 0;
  for (const Param* p : crossbar_params(model_root)) cells += 2 * p->value.numel();
  return cells;
}

InjectionStats apply_defect_map_to_model(Module& model_root, const DefectMap& map,
                                         const InjectorConfig& config) {
  validate(config);
  const std::vector<Param*> params = crossbar_params(model_root);
  InjectionStats stats;
  for (const Param* p : params) stats.cells += 2 * p->value.numel();
  FTPIM_CHECK_EQ(map.cell_count(), stats.cells,
                 "apply_defect_map_to_model: map describes %lld cells, model has %lld",
                 static_cast<long long>(map.cell_count()), static_cast<long long>(stats.cells));

  const std::vector<CellFault>& faults = map.faults();
  const ConductanceQuantizer quant(config.range, config.quant_levels);
  std::size_t k = 0;
  std::int64_t cell_off = 0;  // model cell of the current tensor's first weight
  for (Param* p : params) {
    float* w = p->value.data();
    const std::int64_t n = p->value.numel();
    const DifferentialMapper mapper(config.range, tensor_w_max(p->value));
    std::int64_t next = 0;  // first weight not yet read back
    while (next < n) {
      // The next weight with a stuck cell, or n when this tensor has none left.
      const std::int64_t hit = k < faults.size() && faults[k].cell_index < cell_off + 2 * n
                                   ? (faults[k].cell_index - cell_off) / 2
                                   : n;
      // Healthy pairs change only through programming quantization.
      if (quant.levels() >= 2) {
        for (std::int64_t i = next; i < hit; ++i) {
          w[i] = stuck_pair_readback(w[i], FaultType::kNone, FaultType::kNone, mapper, quant);
        }
      }
      if (hit == n) break;
      FaultType cell[2] = {FaultType::kNone, FaultType::kNone};  // positive, negative
      while (k < faults.size() && (faults[k].cell_index - cell_off) / 2 == hit) {
        cell[(faults[k].cell_index - cell_off) % 2] = faults[k].type;
        ++stats.faulted_cells;
        ++k;
      }
      const float read = stuck_pair_readback(w[hit], cell[0], cell[1], mapper, quant);
      if (read != w[hit]) ++stats.affected_weights;
      w[hit] = read;
      next = hit + 1;
    }
    cell_off += 2 * n;
  }
  return stats;
}

FaultInjectionSession::FaultInjectionSession(Module& model_root)
    : params_(crossbar_params(model_root)),
      shadow_(params_.size()),
      hit_masks_(params_.size()) {}

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
    stats_ += apply_stuck_at_faults(params_[k]->value, shadow_[k], model, config, rng,
                                    &hit_masks_[k]);
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

}  // namespace ftpim
