#include "src/reram/defect_map.hpp"

#include "src/common/check.hpp"
#include "src/common/checkpoint.hpp"

#include <algorithm>
#include <cmath>

namespace ftpim {

DefectMap DefectMap::sample(std::int64_t cell_count, const StuckAtFaultModel& model, Rng& rng) {
  DefectMap map;
  map.cell_count_ = cell_count;
  if (model.p_sa() <= 0.0 || cell_count <= 0) return map;

  // Geometric skipping: draw the gap to the next faulty cell directly instead
  // of a Bernoulli per cell — O(faults) instead of O(cells).
  const double p = model.p_sa();
  const double log1mp = std::log1p(-p);
  std::int64_t index = -1;
  while (true) {
    const double u = rng.uniform_double();
    const double gap = std::floor(std::log1p(-u) / log1mp);  // Geometric(p) >= 0
    if (gap > static_cast<double>(cell_count)) break;        // definitely past the end
    index += 1 + static_cast<std::int64_t>(gap);
    if (index >= cell_count) break;
    const FaultType type =
        rng.uniform_double() < model.sa0_fraction() ? FaultType::kStuckOff : FaultType::kStuckOn;
    map.faults_.push_back(CellFault{index, type});
  }
  return map;
}

DefectMap DefectMap::empty(std::int64_t cell_count) {
  FTPIM_CHECK_GE(cell_count, std::int64_t{0}, "DefectMap::empty: cell_count");
  DefectMap map;
  map.cell_count_ = cell_count;
  return map;
}

DefectMap DefectMap::from_faults(std::int64_t cell_count, std::vector<CellFault> faults) {
  FTPIM_CHECK_GE(cell_count, std::int64_t{0}, "DefectMap::from_faults: cell_count");
  std::int64_t prev = -1;
  for (const CellFault& f : faults) {
    FTPIM_CHECK(f.cell_index > prev && f.cell_index < cell_count,
                "DefectMap::from_faults: faults must be sorted, unique, and in range");
    FTPIM_CHECK(f.type == FaultType::kStuckOff || f.type == FaultType::kStuckOn,
                "DefectMap::from_faults: fault type must be a stuck-at type");
    prev = f.cell_index;
  }
  DefectMap map;
  map.cell_count_ = cell_count;
  map.faults_ = std::move(faults);
  return map;
}

std::int64_t DefectMap::merge_from(const DefectMap& newer) {
  FTPIM_CHECK_EQ(cell_count_, newer.cell_count_,
                 "DefectMap::merge_from: maps describe different cell arrays");
  if (newer.faults_.empty()) return 0;
  std::vector<CellFault> merged;
  merged.reserve(faults_.size() + newer.faults_.size());
  std::int64_t added = 0;
  std::size_t a = 0, b = 0;
  while (a < faults_.size() || b < newer.faults_.size()) {
    if (b >= newer.faults_.size() ||
        (a < faults_.size() && faults_[a].cell_index <= newer.faults_[b].cell_index)) {
      // Existing fault wins on ties: a stuck cell cannot re-fail.
      if (b < newer.faults_.size() && faults_[a].cell_index == newer.faults_[b].cell_index) ++b;
      merged.push_back(faults_[a++]);
    } else {
      merged.push_back(newer.faults_[b++]);
      ++added;
    }
  }
  faults_ = std::move(merged);
  return added;
}

bool DefectMap::stuck(std::int64_t cell_index) const noexcept {
  const auto it = std::lower_bound(
      faults_.begin(), faults_.end(), cell_index,
      [](const CellFault& f, std::int64_t cell) { return f.cell_index < cell; });
  return it != faults_.end() && it->cell_index == cell_index;
}

void DefectMap::encode(ByteWriter& out) const {
  out.i64(cell_count_);
  out.u64(faults_.size());
  for (const CellFault& f : faults_) {
    out.i64(f.cell_index);
    out.u8(static_cast<std::uint8_t>(f.type));
  }
}

DefectMap DefectMap::decode(ByteReader& in) {
  DefectMap map;
  map.cell_count_ = in.i64();
  if (map.cell_count_ < 0) {
    throw CheckpointError(CheckpointErrorKind::kFormat, "", "defect map: negative cell_count");
  }
  const std::uint64_t n = in.u64();
  if (n > static_cast<std::uint64_t>(map.cell_count_)) {
    throw CheckpointError(CheckpointErrorKind::kFormat, "",
                          "defect map: more faults than cells");
  }
  map.faults_.reserve(static_cast<std::size_t>(n));
  std::int64_t prev = -1;
  for (std::uint64_t i = 0; i < n; ++i) {
    CellFault f;
    f.cell_index = in.i64();
    const std::uint8_t type = in.u8();
    if (f.cell_index <= prev || f.cell_index >= map.cell_count_) {
      throw CheckpointError(CheckpointErrorKind::kFormat, "",
                            "defect map: fault list is unsorted or out of range");
    }
    if (type != static_cast<std::uint8_t>(FaultType::kStuckOff) &&
        type != static_cast<std::uint8_t>(FaultType::kStuckOn)) {
      throw CheckpointError(CheckpointErrorKind::kFormat, "",
                            "defect map: unknown fault type " + std::to_string(type));
    }
    f.type = static_cast<FaultType>(type);
    prev = f.cell_index;
    map.faults_.push_back(f);
  }
  return map;
}

std::int64_t DefectMap::count(FaultType type) const noexcept {
  std::int64_t n = 0;
  for (const CellFault& f : faults_) {
    if (f.type == type) ++n;
  }
  return n;
}

}  // namespace ftpim
