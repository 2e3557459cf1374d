// Module::clone() contract and the determinism of the parallel Monte-Carlo
// defect evaluation (bit-identical results at any FTPIM_THREADS setting).
#include <gtest/gtest.h>

#include <memory>

#include "src/common/check.hpp"
#include "src/core/evaluator.hpp"
#include "src/data/synthetic.hpp"
#include "src/models/mlp.hpp"
#include "src/models/small_cnn.hpp"
#include "src/reram/fault_injector.hpp"
#include "test_util.hpp"

namespace ftpim {
namespace {

using testing::random_tensor;
using testing::ThreadGuard;

std::unique_ptr<InMemoryDataset> tiny_data(std::int64_t samples = 64) {
  SynthVisionConfig sv;
  sv.num_classes = 10;
  sv.image_size = 16;
  sv.samples = samples;
  sv.seed = 41;
  return make_synthvision(sv, /*sample_stream=*/1);
}

TEST(ModuleClone, ParamsEqualAndStorageDisjoint) {
  auto net = make_small_cnn(SmallCnnConfig{.image_size = 16, .width = 8, .classes = 10});
  const std::unique_ptr<Module> copy = net->clone();

  std::vector<Param*> src = parameters_of(*net);
  std::vector<Param*> dst = parameters_of(*copy);
  ASSERT_EQ(src.size(), dst.size());
  ASSERT_FALSE(src.empty());
  for (std::size_t k = 0; k < src.size(); ++k) {
    EXPECT_EQ(src[k]->name, dst[k]->name);
    EXPECT_EQ(src[k]->kind, dst[k]->kind);
    EXPECT_TRUE(src[k]->value.allclose(dst[k]->value, 0.0f, 0.0f)) << src[k]->name;
    // Fresh storage: mutating one side must not leak into the other.
    EXPECT_NE(src[k]->value.data(), dst[k]->value.data()) << src[k]->name;
    // Clone starts with zeroed grads regardless of the source's.
    for (std::int64_t i = 0; i < dst[k]->grad.numel(); ++i) {
      ASSERT_EQ(dst[k]->grad[i], 0.0f) << src[k]->name;
    }
  }

  src[0]->value[0] += 1.0f;
  EXPECT_NE(src[0]->value[0], dst[0]->value[0]);
}

TEST(ModuleClone, CarriesBatchNormRunningStats) {
  auto net = make_small_cnn(SmallCnnConfig{.image_size = 16, .width = 8, .classes = 10});
  // Push the running stats away from their init values before cloning.
  const Tensor x = random_tensor(Shape{4, 3, 16, 16}, 42);
  (void)net->forward(x, /*training=*/true);
  (void)net->forward(x, /*training=*/true);

  const std::unique_ptr<Module> copy = net->clone();
  const StateDict want = state_dict_of(*net);
  const StateDict got = state_dict_of(*copy);
  ASSERT_EQ(want.size(), got.size());
  for (const auto& [name, tensor] : want) {
    ASSERT_TRUE(got.count(name)) << name;
    EXPECT_TRUE(tensor.allclose(got.at(name), 0.0f, 0.0f)) << name;
  }
  // Eval-mode forwards (which read the running stats) must agree bitwise.
  const Tensor y_src = net->forward(x, /*training=*/false);
  const Tensor y_dst = copy->forward(x, /*training=*/false);
  EXPECT_TRUE(y_src.allclose(y_dst, 0.0f, 0.0f));
}

TEST(ModuleClone, CloneOfResidualModelIsIndependent) {
  auto net = make_mlp({8, 16, 10}, 43);
  const std::unique_ptr<Module> copy = net->clone();
  // Fault the clone; the source must stay clean.
  const StateDict before = state_dict_of(*net);
  Rng rng(44);
  inject_into_model(*copy, StuckAtFaultModel(0.5), {}, rng);
  for (const Param* p : parameters_of(*net)) {
    EXPECT_TRUE(p->value.allclose(before.at(p->name), 0.0f, 0.0f)) << p->name;
  }
}

TEST(DefectEval, SourceModelLeftUntouched) {
  auto net = make_small_cnn(SmallCnnConfig{.image_size = 16, .width = 8, .classes = 10});
  const auto data = tiny_data();
  const StateDict before = state_dict_of(*net);
  DefectEvalConfig cfg;
  cfg.num_runs = 3;
  cfg.batch_size = 32;
  (void)evaluate_under_defects(*net, *data, /*p_sa=*/0.1, cfg);
  const StateDict after = state_dict_of(*net);
  ASSERT_EQ(before.size(), after.size());
  for (const auto& [name, tensor] : before) {
    EXPECT_TRUE(tensor.allclose(after.at(name), 0.0f, 0.0f)) << name;
  }
}

TEST(DefectEval, BitIdenticalAcrossThreadCounts) {
  auto net = make_small_cnn(SmallCnnConfig{.image_size = 16, .width = 8, .classes = 10});
  const auto data = tiny_data();
  DefectEvalConfig cfg;
  cfg.num_runs = 6;
  cfg.seed = 99;
  cfg.batch_size = 32;

  DefectEvalResult serial, parallel;
  {
    ThreadGuard guard(1);
    serial = evaluate_under_defects(*net, *data, /*p_sa=*/0.05, cfg);
  }
  {
    ThreadGuard guard(4);
    parallel = evaluate_under_defects(*net, *data, /*p_sa=*/0.05, cfg);
  }

  // Bit-identical, not approximately equal: every run's fault map is a
  // function of derive_seed(seed, run) alone and the aggregation order is
  // fixed, so the worker count must be unobservable in the numbers.
  ASSERT_EQ(serial.run_accs.size(), parallel.run_accs.size());
  for (std::size_t r = 0; r < serial.run_accs.size(); ++r) {
    EXPECT_EQ(serial.run_accs[r], parallel.run_accs[r]) << "run " << r;
  }
  EXPECT_EQ(serial.mean_acc, parallel.mean_acc);
  EXPECT_EQ(serial.std_acc, parallel.std_acc);
  EXPECT_EQ(serial.min_acc, parallel.min_acc);
  EXPECT_EQ(serial.max_acc, parallel.max_acc);
  EXPECT_EQ(serial.mean_cell_fault_rate, parallel.mean_cell_fault_rate);
}

TEST(DefectEval, MoreRunsExtendPrefixOfFewerRuns) {
  // Run r's result depends only on the run index, so shrinking num_runs must
  // keep the shared prefix bit-identical (chunk boundaries shift with the
  // total count — this catches any seed derivation tied to chunk layout).
  auto net = make_small_cnn(SmallCnnConfig{.image_size = 16, .width = 8, .classes = 10});
  const auto data = tiny_data();
  DefectEvalConfig cfg;
  cfg.num_runs = 3;
  cfg.batch_size = 32;
  const DefectEvalResult few = evaluate_under_defects(*net, *data, 0.05, cfg);
  cfg.num_runs = 6;
  const DefectEvalResult many = evaluate_under_defects(*net, *data, 0.05, cfg);
  for (std::size_t r = 0; r < few.run_accs.size(); ++r) {
    EXPECT_EQ(few.run_accs[r], many.run_accs[r]) << "run " << r;
  }
}

TEST(DefectEval, InvalidQuantizedConfigThrowsAtAnyThreadCount) {
  // The quantized deployment runs inside each Monte-Carlo worker, so its
  // contract check fires on a worker thread. It must still reach the caller
  // as the same typed error a one-thread run throws.
  auto net = make_small_cnn(SmallCnnConfig{.image_size = 16, .width = 8, .classes = 10});
  const auto data = tiny_data(16);
  DefectEvalConfig cfg;
  cfg.num_runs = 4;
  cfg.batch_size = 16;
  cfg.engine = EvalEngine::kQuantized;
  cfg.quantized.levels = 1;
  for (const int threads : {1, 4}) {
    ThreadGuard guard(threads);
    EXPECT_THROW((void)evaluate_under_defects(*net, *data, 0.01, cfg), ContractViolation)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace ftpim
