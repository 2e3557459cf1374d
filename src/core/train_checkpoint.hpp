// Durable training checkpoints: full state capture for exact resume.
//
// A TrainingCheckpoint freezes everything the fault-tolerant training loop
// needs to continue a killed run as if it had never stopped (DESIGN.md §10):
//
//   CFG0  canonical echo of the FtTrainConfig + resolved stage rates — resume
//         refuses (kStateMismatch) when the resuming run was configured
//         differently, since silently diverging would break the bit-identical
//         guarantee;
//   CURS  schedule cursor (next stage, next epoch-within-stage), the
//         mean-fault-rate accumulators, stage rates, and per-epoch losses so
//         far (FtTrainStats is reconstructed exactly);
//   MODL  model weights + buffers (BN running stats) as a state dict;
//   OPTM  optimizer moment buffers (empty at stage boundaries, where the
//         progressive scheme builds a fresh optimizer anyway);
//   RNGS  the long-lived RNG streams (the DataLoader's augmentation Rng) —
//         every other stochastic input (shuffle order, fault draws, LR) is a
//         pure function of the cursor and the seeds in CFG0.
//
// The reader skips chunks it does not know (their CRC still has to check),
// so files that carry the retired optional DMAP/AGEM chunks still load.
//
// Files are written through CheckpointWriter/AtomicFileWriter, so a crash at
// any byte leaves either the previous checkpoint or a complete new one.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.hpp"
#include "src/tensor/serialize.hpp"

namespace ftpim {

struct TrainingCheckpoint {
  /// Canonical byte encoding of the run configuration (see
  /// encode_ft_config_echo); resume compares it byte-for-byte.
  std::vector<std::uint8_t> config_echo;

  /// Schedule cursor: the NEXT epoch to run is epoch `next_epoch` of stage
  /// `next_stage`. (num_stages, 0) marks a completed run.
  std::uint32_t next_stage = 0;
  std::uint32_t next_epoch = 0;

  /// Mean-cell-fault-rate accumulators (FtTrainStats::mean_cell_fault_rate
  /// is rate_sum / rate_count at the end of the run).
  double rate_sum = 0.0;
  std::int64_t rate_count = 0;

  std::vector<double> stage_rates;
  /// Per-stage epoch losses recorded so far: full stages carry base.epochs
  /// entries, the in-progress stage `next_epoch` entries.
  std::vector<std::vector<float>> epoch_losses;

  StateDict model;
  /// Optimizer moments ("velocity/..." for SGD); empty when the cursor sits
  /// at a stage boundary (the next stage constructs a fresh optimizer).
  StateDict optimizer;
  /// Named long-lived RNG streams, e.g. {"dataloader.augment", state}.
  std::vector<std::pair<std::string, RngState>> rng_streams;
};

/// Writes `ckpt` to `path` atomically (temp + fsync + rename). Throws
/// CheckpointError(kIo) on IO failure.
void save_training_checkpoint(const TrainingCheckpoint& ckpt, const std::string& path);

/// Loads and fully validates a checkpoint. Throws CheckpointError — kMissing,
/// kBadMagic, kVersionSkew, kTruncated, kChecksumMismatch (naming the chunk),
/// kMissingChunk, or kFormat — on any defect; never returns garbage.
[[nodiscard]] TrainingCheckpoint load_training_checkpoint(const std::string& path);

/// Canonical filename for the checkpoint saved after `completed_epochs`
/// global epochs: "ckpt-000012.ftck".
[[nodiscard]] std::string checkpoint_filename(int completed_epochs);

/// Path of the newest checkpoint ("ckpt-*.ftck" with the highest epoch
/// number) in `dir`, or "" when none exists. Deterministic: decided by the
/// parsed epoch number, not directory iteration order.
[[nodiscard]] std::string latest_checkpoint(const std::string& dir);

/// Keep-last-K + keep-best retention over a directory of checkpoints.
///
/// admit() registers a freshly written checkpoint with its metric (higher is
/// better, e.g. validation accuracy or negative loss) and deletes the oldest
/// checkpoints beyond the window — except the best-metric one, which is
/// pinned until a better one appears (ties keep the earlier checkpoint).
class CheckpointRetention {
 public:
  /// keep_last >= 1. With keep_best, at most keep_last + 1 files remain.
  CheckpointRetention(int keep_last, bool keep_best);

  /// Registers `path` (newest checkpoint) and applies the policy.
  void admit(const std::string& path, double metric);

  /// Best-metric checkpoint admitted so far ("" before the first admit, or
  /// when keep_best is off).
  [[nodiscard]] const std::string& best_path() const noexcept { return best_path_; }

 private:
  int keep_last_;
  bool keep_best_;
  std::vector<std::string> recent_;  ///< oldest first
  std::string best_path_;
  double best_metric_ = 0.0;
};

}  // namespace ftpim
