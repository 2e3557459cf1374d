// Per-device defect maps.
//
// A DefectMap records which cells of a cell array are stuck and how. It is
// the persistent identity of one physical device instance: evaluation over
// num_of_runs devices draws num_of_runs maps from per-device seeds.
// Storage is sparse (fault rates of interest are <= 0.2).
//
// Maps are mutable through merge_from() — the in-service aging path
// (src/reram/aging.hpp) grows a device's map over its served lifetime by
// merging freshly sampled fault batches in. A cell that is already stuck
// stays stuck with its original fault type: first fault wins, so evolution
// is monotone and order-independent within an interval.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/rng.hpp"
#include "src/reram/fault_model.hpp"

namespace ftpim {

class ByteWriter;
class ByteReader;

struct CellFault {
  std::int64_t cell_index;  ///< flat index into the cell array
  FaultType type;
};

class DefectMap {
 public:
  DefectMap() = default;

  /// Samples a defect map for `cell_count` cells under `model`, using `rng`.
  static DefectMap sample(std::int64_t cell_count, const StuckAtFaultModel& model, Rng& rng);

  /// A fault-free map over `cell_count` cells (the starting point of a
  /// pristine device that will age in service).
  static DefectMap empty(std::int64_t cell_count);

  /// Builds a map from an explicit fault list (must be sorted by cell_index,
  /// unique, in [0, cell_count), no kNone entries). This is how the
  /// deployment layer re-bases a model-level map onto per-layer cell spaces.
  static DefectMap from_faults(std::int64_t cell_count, std::vector<CellFault> faults);

  /// Merges `newer`'s faults into this map. Cells already stuck keep their
  /// original fault type (a stuck cell cannot re-fail), so repeated merges
  /// are monotone. Both maps must describe the same cell array. Returns the
  /// number of faults actually added.
  std::int64_t merge_from(const DefectMap& newer);

  /// True when `cell_index` is recorded as stuck (binary search).
  [[nodiscard]] bool stuck(std::int64_t cell_index) const noexcept;

  [[nodiscard]] const std::vector<CellFault>& faults() const noexcept { return faults_; }
  [[nodiscard]] std::int64_t cell_count() const noexcept { return cell_count_; }
  [[nodiscard]] std::int64_t fault_count() const noexcept {
    return static_cast<std::int64_t>(faults_.size());
  }
  [[nodiscard]] double observed_rate() const noexcept {
    return cell_count_ > 0 ? static_cast<double>(faults_.size()) / static_cast<double>(cell_count_)
                           : 0.0;
  }

  /// Counts by type (index 1 = stuck-off, 2 = stuck-on).
  [[nodiscard]] std::int64_t count(FaultType type) const noexcept;

  /// Appends the map's checkpoint encoding (cell_count, fault list) to `out`.
  /// Round-trips exactly through decode(); each fleet device record (the
  /// FLDV chunk, DESIGN.md §15) carries its transient and persistent maps in
  /// this encoding.
  void encode(ByteWriter& out) const;

  /// Parses an encode()d map; throws CheckpointError (kTruncated/kFormat) on
  /// malformed input (unsorted faults, out-of-range cells, bad fault type).
  [[nodiscard]] static DefectMap decode(ByteReader& in);

 private:
  std::int64_t cell_count_ = 0;
  std::vector<CellFault> faults_;  ///< sorted by cell_index
};

}  // namespace ftpim
