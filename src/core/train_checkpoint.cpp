#include "src/core/train_checkpoint.hpp"

#include <algorithm>
#include <filesystem>

#include "src/common/check.hpp"
#include "src/common/checkpoint.hpp"
#include "src/common/strformat.hpp"

namespace ftpim {
namespace {

constexpr char kChunkConfig[] = "CFG0";
constexpr char kChunkCursor[] = "CURS";
constexpr char kChunkModel[] = "MODL";
constexpr char kChunkOptimizer[] = "OPTM";
constexpr char kChunkRng[] = "RNGS";

constexpr std::uint64_t kMaxStages = 1u << 16;
constexpr std::uint64_t kMaxEpochsPerStage = 1u << 24;
constexpr std::uint64_t kMaxRngStreams = 1u << 10;

}  // namespace

void save_training_checkpoint(const TrainingCheckpoint& ckpt, const std::string& path) {
  CheckpointWriter writer;
  writer.add_chunk(kChunkConfig, ckpt.config_echo);

  ByteWriter cursor;
  cursor.u32(ckpt.next_stage);
  cursor.u32(ckpt.next_epoch);
  cursor.f64(ckpt.rate_sum);
  cursor.i64(ckpt.rate_count);
  cursor.u64(ckpt.stage_rates.size());
  for (const double r : ckpt.stage_rates) cursor.f64(r);
  cursor.u64(ckpt.epoch_losses.size());
  for (const std::vector<float>& stage : ckpt.epoch_losses) {
    cursor.u64(stage.size());
    for (const float loss : stage) cursor.f32(loss);
  }
  writer.add_chunk(kChunkCursor, cursor.take());

  writer.add_chunk(kChunkModel, encode_state_dict(ckpt.model));
  writer.add_chunk(kChunkOptimizer, encode_state_dict(ckpt.optimizer));

  ByteWriter rng;
  rng.u64(ckpt.rng_streams.size());
  for (const auto& [name, state] : ckpt.rng_streams) {
    rng.str(name);
    for (const std::uint64_t word : state.words) rng.u64(word);
    rng.u8(state.has_cached ? 1 : 0);
    rng.f32(state.cached);
  }
  writer.add_chunk(kChunkRng, rng.take());

  writer.write(path);
}

TrainingCheckpoint load_training_checkpoint(const std::string& path) {
  const CheckpointReader reader(path);
  TrainingCheckpoint ckpt;

  ckpt.config_echo = reader.chunk(kChunkConfig);

  ByteReader cursor = reader.reader(kChunkCursor);
  ckpt.next_stage = cursor.u32();
  ckpt.next_epoch = cursor.u32();
  ckpt.rate_sum = cursor.f64();
  ckpt.rate_count = cursor.i64();
  const std::uint64_t num_rates = cursor.u64();
  if (num_rates > kMaxStages) {
    throw CheckpointError(CheckpointErrorKind::kFormat, kChunkCursor,
                          "declares " + std::to_string(num_rates) + " stage rates");
  }
  ckpt.stage_rates.resize(num_rates);
  for (double& r : ckpt.stage_rates) r = cursor.f64();
  const std::uint64_t num_loss_stages = cursor.u64();
  if (num_loss_stages > kMaxStages) {
    throw CheckpointError(CheckpointErrorKind::kFormat, kChunkCursor,
                          "declares " + std::to_string(num_loss_stages) + " loss stages");
  }
  ckpt.epoch_losses.resize(num_loss_stages);
  for (std::vector<float>& stage : ckpt.epoch_losses) {
    const std::uint64_t n = cursor.u64();
    if (n > kMaxEpochsPerStage) {
      throw CheckpointError(CheckpointErrorKind::kFormat, kChunkCursor,
                            "declares " + std::to_string(n) + " epochs in one stage");
    }
    stage.resize(n);
    for (float& loss : stage) loss = cursor.f32();
  }
  cursor.expect_done();

  ByteReader model = reader.reader(kChunkModel);
  ckpt.model = decode_state_dict(model);
  model.expect_done();

  ByteReader optimizer = reader.reader(kChunkOptimizer);
  ckpt.optimizer = decode_state_dict(optimizer);
  optimizer.expect_done();

  ByteReader rng = reader.reader(kChunkRng);
  const std::uint64_t num_streams = rng.u64();
  if (num_streams > kMaxRngStreams) {
    throw CheckpointError(CheckpointErrorKind::kFormat, kChunkRng,
                          "declares " + std::to_string(num_streams) + " rng streams");
  }
  for (std::uint64_t i = 0; i < num_streams; ++i) {
    std::string name = rng.str();
    RngState state;
    for (std::uint64_t& word : state.words) word = rng.u64();
    state.has_cached = rng.u8() != 0;
    state.cached = rng.f32();
    ckpt.rng_streams.emplace_back(std::move(name), state);
  }
  rng.expect_done();
  return ckpt;
}

std::string checkpoint_filename(int completed_epochs) {
  FTPIM_CHECK_GE(completed_epochs, 0, "checkpoint_filename: completed_epochs");
  return detail::format_msg("ckpt-%06d.ftck", completed_epochs);
}

std::string latest_checkpoint(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return "";
  long best_epoch = -1;
  std::string best;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() != 16 || name.rfind("ckpt-", 0) != 0 ||
        name.compare(11, 5, ".ftck") != 0) {
      continue;
    }
    long epoch = 0;
    bool numeric = true;
    for (int i = 5; i < 11; ++i) {
      const char c = name[static_cast<std::size_t>(i)];
      if (c < '0' || c > '9') {
        numeric = false;
        break;
      }
      epoch = epoch * 10 + (c - '0');
    }
    // Ties are impossible (names are unique in a directory); > keeps the
    // scan order-independent anyway.
    if (numeric && epoch > best_epoch) {
      best_epoch = epoch;
      best = entry.path().string();
    }
  }
  return best;
}

CheckpointRetention::CheckpointRetention(int keep_last, bool keep_best)
    : keep_last_(keep_last), keep_best_(keep_best) {
  FTPIM_CHECK_GE(keep_last, 1, "CheckpointRetention: keep_last");
}

void CheckpointRetention::admit(const std::string& path, double metric) {
  recent_.push_back(path);
  if (keep_best_ && (best_path_.empty() || metric > best_metric_)) {
    // The dethroned best is deleted unless it is still inside the
    // keep-last window.
    const std::string dethroned = best_path_;
    best_path_ = path;
    best_metric_ = metric;
    if (!dethroned.empty() &&
        std::find(recent_.begin(), recent_.end(), dethroned) == recent_.end()) {
      std::error_code ec;
      std::filesystem::remove(dethroned, ec);
    }
  }
  while (recent_.size() > static_cast<std::size_t>(keep_last_)) {
    const std::string victim = recent_.front();
    recent_.erase(recent_.begin());
    if (victim == best_path_) continue;  // pinned until dethroned
    std::error_code ec;
    std::filesystem::remove(victim, ec);
  }
}

}  // namespace ftpim
