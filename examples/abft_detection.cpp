// Online fault detection & self-scrubbing demo (DESIGN.md §14).
//
// Act 1, one engine: program a matrix with ABFT checksum columns, baseline,
// land stuck-at faults AFTER the baseline, and watch a single batch name the
// damaged (row-tile, col-tile) pairs. Scrub the flagged tiles in place and
// verify the readout is healed — bit-exact against the pristine engine when
// every damaged tile was caught.
//
// Act 2, a fleet: quantized replicas serve traffic with checksums armed
// while in-service aging grows new faults. Each flagged batch depresses the
// health score and is answered with a tile scrub; persistent damage (the
// aging map survives every scrub) exhausts the retry budget and escalates
// to quarantine -> repair. The closing health_line carries the whole story.
#include <cstdio>
#include <cstring>
#include <future>
#include <vector>

#include "src/common/config.hpp"
#include "src/common/rng.hpp"
#include "src/core/trainer.hpp"
#include "src/data/synthetic.hpp"
#include "src/models/small_cnn.hpp"
#include "src/reram/fault_model.hpp"
#include "src/reram/qinfer/quantized_engine.hpp"
#include "src/serve/inference_server.hpp"
#include "src/tensor/tensor.hpp"

namespace {

using namespace ftpim;

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  Tensor t(std::move(shape));
  Rng rng(seed);
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.normal();
  return t;
}

void act1_single_engine() {
  const std::int64_t out = 256, in = 512, batch = 32;
  const double p_sa = env_double("FTPIM_PSA", 0.01);
  const Tensor w = random_tensor(Shape{out, in}, 11);
  const Tensor x = random_tensor(Shape{batch, in}, 13);

  qinfer::QuantizedEngineConfig qc;  // 16 levels, 8-bit ADC
  qc.abft.enabled = true;
  qinfer::QuantizedCrossbarEngine pristine(w, qc);
  qinfer::QuantizedCrossbarEngine eng(w, qc);
  std::printf("=== act 1: one %lldx%lld engine, %lld checksum columns per "
              "%lldx%lld tile ===\n",
              static_cast<long long>(out), static_cast<long long>(in),
              static_cast<long long>(eng.checksum_columns()),
              static_cast<long long>(qc.tile_rows), static_cast<long long>(qc.tile_cols));

  std::vector<float> y_ok(static_cast<std::size_t>(batch * out));
  std::vector<float> y(y_ok.size());
  pristine.mvm_batch(x.data(), batch, y_ok.data());

  // Faults land AFTER construction (the clean state is the baseline), so
  // every one of them is post-baseline damage the checksums should ring on.
  eng.apply_device_defects(StuckAtFaultModel(p_sa), /*master_seed=*/23, /*device=*/0);
  std::printf("injected stuck-at faults at p_sa=%g: %lld stuck cells\n", p_sa,
              static_cast<long long>(eng.stuck_cells()));

  eng.mvm_batch(x.data(), batch, y.data());
  abft::TileFaultReport rep = eng.take_abft_report();
  std::printf("one batch of %lld: %lld/%lld tiles flagged (%lld checks, %lld mismatches)\n",
              static_cast<long long>(batch), static_cast<long long>(rep.flagged_tiles()),
              static_cast<long long>(eng.tile_count()), static_cast<long long>(rep.checks),
              static_cast<long long>(rep.mismatches));
  for (const abft::TileFaultCount& t : rep.tiles) {
    std::printf("  tile (rt=%lld, ct=%lld): %lld mismatched samples\n",
                static_cast<long long>(t.row_tile), static_cast<long long>(t.col_tile),
                static_cast<long long>(t.mismatches));
  }

  const std::int64_t scrubbed = eng.scrub(rep);
  eng.mvm_batch(x.data(), batch, y.data());
  rep = eng.take_abft_report();
  const bool exact = std::memcmp(y.data(), y_ok.data(), y.size() * sizeof(float)) == 0;
  std::printf("scrubbed %lld tiles -> %lld stuck cells remain, next batch %s, "
              "readout %s pristine\n\n",
              static_cast<long long>(scrubbed), static_cast<long long>(eng.stuck_cells()),
              rep.clean() ? "clean" : "still ringing",
              exact ? "bit-exact vs" : "differs from (an undetected tile survived)");
}

void act2_fleet() {
  using namespace ftpim::serve;
  const int total_requests = env_int("FTPIM_REQS", 384, 1);

  SynthVisionConfig data_cfg;
  data_cfg.num_classes = 10;
  data_cfg.image_size = 16;
  data_cfg.samples = env_int("FTPIM_TRAIN", 1024, 1);
  const auto train = make_synthvision(data_cfg, 1);
  data_cfg.samples = env_int("FTPIM_TEST", 256, 1);
  const auto test = make_synthvision(data_cfg, 2);

  SmallCnnConfig model_cfg;
  model_cfg.image_size = 16;
  auto model = make_small_cnn(model_cfg);
  TrainConfig tc;
  tc.epochs = env_int("FTPIM_EPOCHS", 3, 1);
  Trainer(*model, *train, tc).run();

  ServerConfig cfg;
  cfg.queue_capacity = 512;
  cfg.batching.max_batch_size = 8;
  cfg.batching.max_linger_ns = 500'000;
  cfg.pool.num_replicas = env_int("FTPIM_REPLICAS", 2, 1);
  cfg.pool.p_sa = 0.01;  // manufacturing defects: baselined away, never ring
  cfg.pool.seed = 7;
  cfg.pool.engine = ReplicaEngine::kQuantized;
  cfg.pool.quantized.abft.enabled = true;
  // Wear model: every 8 served batches, 0.5% of surviving cells fail. Aging
  // faults are post-baseline, so checksums flag them within one batch.
  cfg.aging.p_new_per_interval = 0.005;
  cfg.aging.interval_batches = 8;
  cfg.aging.seed = 99;
  // Scrub transient damage up to 3 consecutive flagged batches, then give
  // up and quarantine; aging damage re-applies after each scrub, so worn
  // replicas march through the ladder to a full repair.
  cfg.health.max_scrub_retries = 3;
  cfg.health.canary_every_batches = 16;
  cfg.health.canary_samples = 8;
  cfg.health.repair_on_quarantine = true;

  std::printf("=== act 2: %d quantized replicas, checksums armed, aging in service ===\n",
              cfg.pool.num_replicas);
  InferenceServer server(*model, cfg);
  server.start();

  std::vector<std::future<InferenceResult>> futures;
  futures.reserve(static_cast<std::size_t>(total_requests));
  for (int i = 0; i < total_requests; ++i) {
    futures.push_back(server.submit(test->get(i % test->size()).image));
  }
  std::int64_t correct = 0;
  for (int i = 0; i < total_requests; ++i) {
    if (futures[static_cast<std::size_t>(i)].get().predicted ==
        test->get(i % test->size()).label) {
      ++correct;
    }
  }
  server.drain();
  server.stop();

  const ServerStats stats = server.stats();
  std::printf("served accuracy %.2f%% over %d requests\n",
              100.0 * static_cast<double>(correct) / total_requests, total_requests);
  std::printf("%s\n%s\n", stats.summary_line().c_str(), stats.health_line().c_str());
}

}  // namespace

int main() {
  act1_single_engine();
  act2_fleet();
  return 0;
}
