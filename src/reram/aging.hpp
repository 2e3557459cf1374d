// In-service defect aging — the runtime half of the paper's lifetime story.
//
// A mass-produced ReRAM device does not keep the defect map it shipped with:
// endurance wear-out keeps converting cells to stuck-at faults while the
// device serves traffic. AgingModel makes that degradation a deterministic
// function of (seed, device stream, served-batch count): service time is
// divided into fixed-size intervals of `interval_batches` served batches,
// and interval k contributes a freshly sampled batch of new stuck cells
// drawn from Rng(derive_seed(derive_seed(seed, device_stream), k)). Because
// each interval's faults depend only on the interval index, evolution
// composes: evolve(map, 0 -> a) then evolve(map, a -> b) is bit-identical to
// evolve(map, 0 -> b), which is what makes degradation reproducible under
// ManualServeClock in the serving layer (DESIGN.md §9).
//
// Merging uses DefectMap::merge_from — a cell that is already stuck keeps
// its original fault type, so the map grows monotonically.
#pragma once

#include <cstdint>

#include "src/reram/defect_map.hpp"
#include "src/reram/fault_model.hpp"

namespace ftpim {

struct AgingConfig {
  /// Per-cell probability that a healthy cell fails during one aging
  /// interval; 0 disables aging entirely.
  double p_new_per_interval = 0.0;
  /// Served batches per aging interval (the unit of in-service "time").
  std::int64_t interval_batches = 64;
  double sa0_fraction = kPaperSa0Fraction;
  std::uint64_t seed = 99;  ///< master aging seed; streams derive per device

  [[nodiscard]] bool enabled() const noexcept { return p_new_per_interval > 0.0; }
  void validate() const;
};

class AgingModel {
 public:
  AgingModel() = default;
  explicit AgingModel(const AgingConfig& config);

  [[nodiscard]] const AgingConfig& config() const noexcept { return config_; }

  /// Whole aging intervals elapsed after `served_batches` batches.
  [[nodiscard]] std::int64_t intervals_at(std::int64_t served_batches) const noexcept;

  /// The new faults arriving during interval `interval` (0-based) on the
  /// device identified by `device_stream`. Pure function of
  /// (seed, device_stream, interval) — never of the current map.
  [[nodiscard]] DefectMap interval_faults(std::int64_t cell_count, std::uint64_t device_stream,
                                          std::int64_t interval) const;

  /// Merges every interval in [from_interval, to_interval) into `map`.
  /// Returns the number of newly stuck cells (cells already stuck are not
  /// re-counted, mirroring DefectMap::merge_from).
  std::int64_t evolve(DefectMap& map, std::uint64_t device_stream, std::int64_t from_interval,
                      std::int64_t to_interval) const;

 private:
  AgingConfig config_;
};

}  // namespace ftpim
