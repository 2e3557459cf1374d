// Model-level deployment of the quantized crossbar engine.
//
// A QuantizedDeployment walks a model, builds one QuantizedCrossbarEngine
// per crossbar-weight layer (Linear / Conv2d), and installs each engine as
// the layer's MvmHook — after which every EVAL-mode forward of the model
// runs the int8 conductance-domain datapath instead of the float GEMM.
// Training forwards and backward are untouched, so the same model object
// can keep training between deployments.
//
// Fault plumbing: the deployment speaks the same model-level cell space as
// src/reram/fault_injector.hpp — 2 cells per crossbar weight, concatenated
// in parameters_of order — so the DefectMaps that ReplicaPool and the
// defect evaluator already sample can be applied unchanged. Here they land
// in the LEVEL domain (stuck-off -> level 0, stuck-on -> level L-1) instead
// of being folded into float weights.
//
// Lifetime: the deployment does not own the model and must not outlive it.
// Its destructor uninstalls the hooks it installed; engines are owned by
// the hook shared_ptrs, so a hook captured elsewhere stays valid even after
// the deployment is gone. Mutation (apply_* / clear_defects) is
// single-owner and must not race an in-flight forward.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/nn/conv2d.hpp"
#include "src/nn/linear.hpp"
#include "src/nn/module.hpp"
#include "src/nn/mvm_hook.hpp"
#include "src/reram/qinfer/quantized_engine.hpp"

namespace ftpim::qinfer {

/// MvmHook adapter that owns one engine. The engine type itself stays free
/// of nn dependencies; this is the one place the two meet.
class EngineHook final : public MvmHook {
 public:
  explicit EngineHook(std::unique_ptr<QuantizedCrossbarEngine> engine)
      : engine_(std::move(engine)) {}

  void mvm_batch(const float* x, std::int64_t batch, float* y) const override {
    engine_->mvm_batch(x, batch, y);
  }
  void conv_image(const float* x, const ConvGeometry& g, float* y) const override {
    engine_->conv_image(x, g, y);
  }
  [[nodiscard]] std::int64_t in_features() const noexcept override {
    return engine_->in_features();
  }
  [[nodiscard]] std::int64_t out_features() const noexcept override {
    return engine_->out_features();
  }

  [[nodiscard]] QuantizedCrossbarEngine& engine() noexcept { return *engine_; }
  [[nodiscard]] const QuantizedCrossbarEngine& engine() const noexcept { return *engine_; }

 private:
  std::unique_ptr<QuantizedCrossbarEngine> engine_;
};

class QuantizedDeployment {
 public:
  /// Programs every crossbar-weight layer of `model` onto a quantized
  /// engine (w_max = tensor_w_max of each matrix, like the float injector)
  /// and installs the hooks.
  QuantizedDeployment(Module& model, const QuantizedEngineConfig& config);
  ~QuantizedDeployment();

  QuantizedDeployment(const QuantizedDeployment&) = delete;
  QuantizedDeployment& operator=(const QuantizedDeployment&) = delete;

  [[nodiscard]] std::size_t layer_count() const noexcept { return layers_.size(); }
  [[nodiscard]] QuantizedCrossbarEngine& engine(std::size_t i) { return layers_[i].hook->engine(); }
  [[nodiscard]] const QuantizedCrossbarEngine& engine(std::size_t i) const {
    return layers_[i].hook->engine();
  }

  /// Model-level cell count (== crossbar_cell_count(model)).
  [[nodiscard]] std::int64_t cell_count() const noexcept { return cell_count_; }
  [[nodiscard]] std::int64_t total_cells() const noexcept;
  [[nodiscard]] std::int64_t stuck_cells() const noexcept;

  /// Applies a model-level defect map (fault_injector cell convention) in
  /// the level domain, slicing it onto the per-layer engines.
  void apply_defect_map(const DefectMap& map);

  /// Per-die sampling across all layers: layer i draws from the stream
  /// derive_seed(master_seed, 0x51ab + i) so layers are decorrelated while
  /// (master_seed, device_index) still names one physical device.
  void apply_device_defects(const StuckAtFaultModel& model, std::uint64_t master_seed,
                            std::uint64_t device_index);

  void clear_defects();

  // --- ABFT fan-out (config.abft.enabled only; see src/reram/abft.hpp) ---

  [[nodiscard]] bool abft_enabled() const noexcept { return abft_enabled_; }

  /// Drains every engine's detection tally; reports carry their layer index.
  /// Layers with no checks since the last drain still yield a (clean) entry,
  /// so the vector is always layer_count() long.
  [[nodiscard]] std::vector<abft::TileFaultReport> take_abft_reports();

  /// Re-encodes every engine's checksum baseline from the current effective
  /// levels (accepts the faults present now as reference state).
  void abft_rebaseline();

  /// Scrubs every tile flagged in `reports` (reports index layers via
  /// TileFaultReport::layer). Returns the number of tiles scrubbed. The
  /// caller re-applies its persistent DefectMap afterwards.
  std::int64_t scrub(const std::vector<abft::TileFaultReport>& reports);

 private:
  struct LayerSlot {
    Linear* linear = nullptr;  ///< exactly one of linear/conv is set
    Conv2d* conv = nullptr;
    std::shared_ptr<EngineHook> hook;
    std::int64_t cell_offset = 0;  ///< into the model-level cell space
    std::int64_t cells = 0;        ///< 2 * weight numel
  };

  Module* model_;
  std::vector<LayerSlot> layers_;
  std::int64_t cell_count_ = 0;
  bool abft_enabled_ = false;
};

/// Convenience: heap-allocate a deployment (replica slots store these next
/// to the model clone they instrument).
[[nodiscard]] std::unique_ptr<QuantizedDeployment> deploy_quantized(
    Module& model, const QuantizedEngineConfig& config);

}  // namespace ftpim::qinfer
