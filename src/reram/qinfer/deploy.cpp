#include "src/reram/qinfer/deploy.hpp"

#include "src/common/check.hpp"
#include "src/common/rng.hpp"

namespace ftpim::qinfer {

QuantizedDeployment::QuantizedDeployment(Module& model, const QuantizedEngineConfig& config) {
  config.validate();
  // crossbar_layers is the walk crossbar_params follows, so the per-layer
  // cell ranges assigned here are the fault injector's model-cell ranges.
  for (CrossbarLayer* layer : crossbar_layers(model)) {
    const Tensor& weights = layer->weight().value;
    LayerSlot slot{.layer = layer,
                   .hook = std::make_shared<EngineHook>(
                       std::make_unique<QuantizedCrossbarEngine>(weights, config)),
                   .cell_offset = cell_count_,
                   .cells = 2 * weights.numel()};
    cell_count_ += slot.cells;
    layer->set_mvm_hook(slot.hook);
    layers_.push_back(std::move(slot));
  }
  abft_enabled_ = config.abft.enabled;
}

QuantizedDeployment::~QuantizedDeployment() {
  for (LayerSlot& slot : layers_) {
    // Only uninstall a hook we still own — if someone re-deployed the same
    // model, the layer already points at the newer deployment's hook.
    if (slot.layer->mvm_hook() == slot.hook.get()) slot.layer->set_mvm_hook(nullptr);
  }
}

std::int64_t QuantizedDeployment::total_cells() const noexcept {
  std::int64_t n = 0;
  for (const LayerSlot& slot : layers_) n += slot.hook->engine().total_cells();
  return n;
}

std::int64_t QuantizedDeployment::stuck_cells() const noexcept {
  std::int64_t n = 0;
  for (const LayerSlot& slot : layers_) n += slot.hook->engine().stuck_cells();
  return n;
}

void QuantizedDeployment::apply_defect_map(const DefectMap& map) {
  FTPIM_CHECK_EQ(map.cell_count(), cell_count_,
                 "QuantizedDeployment::apply_defect_map: map describes %lld cells, model has %lld",
                 static_cast<long long>(map.cell_count()), static_cast<long long>(cell_count_));
  const std::vector<CellFault>& faults = map.faults();
  std::size_t k = 0;
  std::vector<CellFault> local;
  for (LayerSlot& slot : layers_) {
    const std::int64_t hi = slot.cell_offset + slot.cells;
    local.clear();
    while (k < faults.size() && faults[k].cell_index < hi) {
      local.push_back(CellFault{faults[k].cell_index - slot.cell_offset, faults[k].type});
      ++k;
    }
    slot.hook->engine().apply_defect_map(
        DefectMap::from_faults(slot.cells, local));
  }
}

void QuantizedDeployment::apply_device_defects(const StuckAtFaultModel& model,
                                               std::uint64_t master_seed,
                                               std::uint64_t device_index) {
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i].hook->engine().apply_device_defects(
        model, derive_seed(master_seed, 0x51ab + static_cast<std::uint64_t>(i)), device_index);
  }
}

void QuantizedDeployment::clear_defects() {
  for (LayerSlot& slot : layers_) slot.hook->engine().clear_defects();
}

std::vector<abft::TileFaultReport> QuantizedDeployment::take_abft_reports() {
  FTPIM_CHECK(abft_enabled_, "QuantizedDeployment::take_abft_reports: ABFT is disabled");
  std::vector<abft::TileFaultReport> reports;
  reports.reserve(layers_.size());
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    abft::TileFaultReport r = layers_[i].hook->engine().take_abft_report();
    r.layer = static_cast<std::int64_t>(i);
    reports.push_back(std::move(r));
  }
  return reports;
}

void QuantizedDeployment::abft_rebaseline() {
  FTPIM_CHECK(abft_enabled_, "QuantizedDeployment::abft_rebaseline: ABFT is disabled");
  for (LayerSlot& slot : layers_) slot.hook->engine().abft_rebaseline();
}

std::int64_t QuantizedDeployment::scrub(const std::vector<abft::TileFaultReport>& reports) {
  FTPIM_CHECK(abft_enabled_, "QuantizedDeployment::scrub: ABFT is disabled");
  std::int64_t scrubbed = 0;
  for (const abft::TileFaultReport& r : reports) {
    if (r.tiles.empty()) continue;
    FTPIM_CHECK(r.layer >= 0 && r.layer < static_cast<std::int64_t>(layers_.size()),
                "QuantizedDeployment::scrub: report names layer %lld of %lld",
                static_cast<long long>(r.layer), static_cast<long long>(layers_.size()));
    scrubbed += layers_[static_cast<std::size_t>(r.layer)].hook->engine().scrub(r);
  }
  return scrubbed;
}

std::unique_ptr<QuantizedDeployment> deploy_quantized(Module& model,
                                                      const QuantizedEngineConfig& config) {
  return std::make_unique<QuantizedDeployment>(model, config);
}

}  // namespace ftpim::qinfer
