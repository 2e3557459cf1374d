// Fleet of device replicas: one trained model, N defective copies.
//
// This is the paper's deployment story made executable: a single FT-trained
// network is cloned once per simulated edge device, and each clone gets its
// own persistent stuck-at defect map (drawn through the same Apply_Fault
// machinery as the offline evaluator) that stays applied across the
// replica's service life. Replica r's generation-0 map is seeded with
// derive_seed(config.seed, r), a function of the replica index alone, so a
// fleet is bit-reproducible across runs and across pool rebuilds.
//
// Unlike the original immutable fleet, replicas now have a LIFECYCLE:
//
//   * advance_aging() grows a replica's defect map in service (new cells
//     fail as the device wears — src/reram/aging.hpp) and re-deploys the
//     model: pristine-source re-clone + full accumulated map re-applied.
//     Rebuilding from clean weights is load-bearing — stuck-cell readback is
//     not invertible, so aged faults cannot be layered onto already-faulted
//     weights.
//   * repair() simulates swapping the device: a fresh clone of the pristine
//     source gets a FRESH defect map from the next seed generation
//     (derive_seed(derive_seed(seed, r), generation)), modeling a new
//     physical device with its own manufacturing defects.
//
// Thread-safety: replicas are disjoint deep clones (Module::clone()).
// Construction is exclusive; afterwards each replica — model, map, and the
// repair()/advance_aging() mutators — is single-owner state driven only by
// its worker thread, while size()/config()/source() stay safe to read from
// anywhere. Workers repairing at once share only the pristine source, which
// they clone and walk (module walks write nothing).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/nn/module.hpp"
#include "src/reram/aging.hpp"
#include "src/reram/defect_map.hpp"
#include "src/reram/fault_injector.hpp"
#include "src/reram/fault_model.hpp"
#include "src/reram/qinfer/deploy.hpp"

namespace ftpim::serve {

/// Which datapath a replica's device runs.
enum class ReplicaEngine {
  kFloat,      ///< faults folded into float weights (fault_injector)
  kQuantized,  ///< int8 conductance-domain engines behind MvmHooks
};

struct ReplicaPoolConfig {
  int num_replicas = 1;
  double p_sa = 0.0;  ///< per-cell stuck-at probability; 0 = pristine fleet
  double sa0_fraction = kPaperSa0Fraction;
  InjectorConfig injector{};
  std::uint64_t seed = 99;  ///< master seed; replica r uses derive_seed(seed, r)
  /// kQuantized deploys every replica through QuantizedDeployment: weights
  /// stay clean in the model, faults live in the engines' level domain, and
  /// the SAME per-replica defect map stream is drawn as on the float path
  /// (seed_for is engine-independent).
  ReplicaEngine engine = ReplicaEngine::kFloat;
  qinfer::QuantizedEngineConfig quantized{};  ///< engine == kQuantized only
};

class ReplicaPool {
 public:
  /// Clones `source` num_replicas times and injects each clone's persistent
  /// defect map. `source` is never mutated; a pristine clone is retained for
  /// repairs and aging rebuilds.
  ReplicaPool(const Module& source, const ReplicaPoolConfig& config);

  ReplicaPool(const ReplicaPool&) = delete;
  ReplicaPool& operator=(const ReplicaPool&) = delete;

  [[nodiscard]] int size() const noexcept { return static_cast<int>(replicas_.size()); }

  /// The replica model (faulted weights). Callers own the threading
  /// discipline: at most one thread drives a given replica at a time.
  [[nodiscard]] Module& replica(int index);
  [[nodiscard]] const Module& replica(int index) const;

  /// The pristine source model (clean weights, never faulted). Canary golden
  /// outputs are computed from a clone of this.
  [[nodiscard]] const Module& source() const noexcept { return *source_; }

  /// Injection outcome of replica `index` (fault counts, affected weights).
  /// After aging rebuilds this reflects the full accumulated map.
  [[nodiscard]] const InjectionStats& injection_stats(int index) const;

  /// The replica's persistent defect map.
  [[nodiscard]] const DefectMap& defect_map(int index) const;

  /// How many times replica `index` has been repaired (generation 0 = the
  /// original device).
  [[nodiscard]] int generation(int index) const;

  /// The seed replica `index`'s CURRENT defect map was drawn with; generation
  /// 0 keeps the historical derive_seed(seed, index) stream.
  [[nodiscard]] std::uint64_t replica_seed(int index) const;

  /// Replaces replica `index` with a new device: fresh clone of the pristine
  /// source, fresh defect map from the next seed generation. Single-owner
  /// mutator — only the replica's worker may call this.
  void repair(int index);

  /// Whole-replica background refresh ("re-program the die"): re-deploys
  /// replica `index` from retained clean state and re-applies its persistent
  /// defect map. Transient damage (upsets landed directly in an engine's
  /// level domain, or injected into float weights) heals; manufacturing and
  /// aging faults — everything recorded in the map — come straight back. On
  /// the quantized path this is clear_defects + map re-apply over engines
  /// that retain their programmed levels, and the ABFT baseline is left
  /// untouched so post-baseline faults keep detecting; on the float path it
  /// is a pristine re-clone + map re-apply. No generation bump, no map
  /// change, no window reset. Returns the engine tiles re-programmed (0 on
  /// the float path). Single-owner mutator.
  std::int64_t refresh(int index);

  /// Ages replica `index` to `target_intervals` (monotone; no-op when already
  /// there): grows its map via `aging` and, if anything changed, re-deploys
  /// from the pristine source with the accumulated map. Returns the number of
  /// cell faults added. Single-owner mutator.
  std::int64_t advance_aging(int index, const AgingModel& aging, std::int64_t target_intervals);

  /// Intervals replica `index` has been aged through so far.
  [[nodiscard]] std::int64_t aged_intervals(int index) const;

  /// The replica's quantized deployment (nullptr on the float path). The
  /// mutable overload is single-owner like repair() — chaos/test harnesses
  /// use it to land transient upsets directly in an engine's level domain.
  [[nodiscard]] const qinfer::QuantizedDeployment* deployment(int index) const;
  [[nodiscard]] qinfer::QuantizedDeployment* deployment(int index);

  [[nodiscard]] const ReplicaPoolConfig& config() const noexcept { return config_; }

  // --- ABFT (engine == kQuantized with quantized.abft.enabled only) ---

  /// True when replicas verify every MVM through ABFT checksum columns.
  [[nodiscard]] bool abft_armed() const noexcept {
    return config_.engine == ReplicaEngine::kQuantized && config_.quantized.abft.enabled;
  }

  /// Drains replica `index`'s per-layer detection reports accumulated since
  /// the last drain. Single-owner, like repair().
  [[nodiscard]] std::vector<abft::TileFaultReport> take_abft_reports(int index);

  /// Detection-triggered scrub: re-programs every tile flagged in `reports`
  /// from the engines' retained levels, then re-applies the replica's
  /// persistent defect map — transient faults heal, manufacturing and
  /// aging-grown faults resurface (and keep detections alive, which is what
  /// escalates persistent damage to a full repair). Returns tiles scrubbed.
  /// Single-owner mutator; no re-clone, no generation change.
  std::int64_t scrub(int index, const std::vector<abft::TileFaultReport>& reports);

 private:
  struct Replica {
    std::unique_ptr<Module> model;
    /// Declared after model: destroyed first, so hook uninstall still sees a
    /// live model. Engines hold clean levels + faults separately, which is
    /// why aging below never needs a model re-clone on the quantized path.
    std::unique_ptr<qinfer::QuantizedDeployment> deployment;
    InjectionStats stats;
    DefectMap map;
    int generation = 0;
    std::int64_t aged_intervals = 0;
  };

  [[nodiscard]] std::uint64_t seed_for(int index, int generation) const;
  void install(Replica& rep, int index);  ///< clone source + apply the map for its seed
  /// Float path: fresh clone of the pristine source + the replica's whole map.
  void redeploy_float(Replica& rep);
  [[nodiscard]] const Replica& at(int index, const char* what) const;
  [[nodiscard]] Replica& at(int index, const char* what);

  ReplicaPoolConfig config_;
  std::unique_ptr<Module> source_;  ///< pristine clone; never faulted
  std::vector<Replica> replicas_;
};

}  // namespace ftpim::serve
