// Shared helpers for ftpim tests: random tensors, a scoped worker-count
// override, per-test scratch directories, and finite-difference gradient
// checking of Module implementations.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <functional>
#include <set>
#include <string>
#include <system_error>
#include <vector>

#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/nn/module.hpp"
#include "src/tensor/tensor.hpp"

namespace ftpim::testing {

inline Tensor random_tensor(Shape shape, std::uint64_t seed, float scale = 1.0f) {
  Tensor t(std::move(shape));
  Rng rng(seed);
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = scale * rng.normal();
  return t;
}

/// Pins the parallel_for_chunks worker count for a scope; restores the
/// env/hardware default on exit, even when an assertion throws.
class ThreadGuard {
 public:
  explicit ThreadGuard(int n) { set_num_threads(n); }
  ~ThreadGuard() { set_num_threads(0); }
  ThreadGuard(const ThreadGuard&) = delete;
  ThreadGuard& operator=(const ThreadGuard&) = delete;
};

/// Fresh, empty directory $TMPDIR/ftpim-<suite>.<test>-<pid>[/sub] for the
/// running test. ctest runs every test as its own process, so tests never
/// share a path, even when they share a fixture or run in several
/// checkouts at once. Calling it again with the same `sub` empties that
/// directory. The per-test directory is removed at process exit.
inline std::filesystem::path scratch_dir(const std::string& sub = "") {
  struct Cleanup {
    std::set<std::filesystem::path> dirs;
    ~Cleanup() {
      std::error_code ec;
      for (const std::filesystem::path& d : dirs) std::filesystem::remove_all(d, ec);
    }
  };
  static Cleanup cleanup;
  const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = "ftpim-";
  name += info != nullptr ? std::string(info->test_suite_name()) + "." + info->name() : "no-test";
  name += "-" + std::to_string(::getpid());
  for (char& c : name) {
    if (c == '/') c = '_';  // parameterized suites and tests contain '/'
  }
  const std::filesystem::path root = std::filesystem::temp_directory_path() / name;
  cleanup.dirs.insert(root);
  const std::filesystem::path dir = sub.empty() ? root : root / sub;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Scalar objective used by gradient checks: sum(output * probe), whose
/// gradient wrt the output is simply `probe`.
inline float probed_sum(const Tensor& out, const Tensor& probe) {
  double acc = 0.0;
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    acc += static_cast<double>(out[i]) * probe[i];
  }
  return static_cast<float>(acc);
}

/// Max relative error between analytic and numeric input gradients of a
/// module, via central differences. Module must be deterministic in
/// training mode for repeated forwards on perturbed inputs (true for all
/// ftpim layers; BatchNorm recomputes batch stats which the numeric
/// derivative correctly accounts for).
inline double check_input_gradient(Module& module, const Tensor& input, std::uint64_t probe_seed,
                                   float eps = 1e-2f) {
  Tensor out = module.forward(input, /*training=*/true);
  const Tensor probe = random_tensor(out.shape(), probe_seed);
  const Tensor analytic = module.backward(probe);

  double max_err = 0.0;
  Tensor x = input;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const float saved = x[i];
    x[i] = saved + eps;
    const float up = probed_sum(module.forward(x, true), probe);
    x[i] = saved - eps;
    const float down = probed_sum(module.forward(x, true), probe);
    x[i] = saved;
    const double numeric = static_cast<double>(up - down) / (2.0 * eps);
    const double err = std::fabs(numeric - analytic[i]) /
                       std::max(1.0, std::fabs(numeric) + std::fabs(analytic[i]));
    max_err = std::max(max_err, err);
  }
  return max_err;
}

/// Max relative error of parameter gradients (all params of the module).
inline double check_param_gradients(Module& module, const Tensor& input,
                                    std::uint64_t probe_seed, float eps = 1e-2f) {
  Tensor out = module.forward(input, /*training=*/true);
  const Tensor probe = random_tensor(out.shape(), probe_seed);
  zero_grads(module);
  (void)module.backward(probe);

  double max_err = 0.0;
  for (Param* p : parameters_of(module)) {
    for (std::int64_t i = 0; i < p->value.numel(); ++i) {
      const float saved = p->value[i];
      p->value[i] = saved + eps;
      const float up = probed_sum(module.forward(input, true), probe);
      p->value[i] = saved - eps;
      const float down = probed_sum(module.forward(input, true), probe);
      p->value[i] = saved;
      const double numeric = static_cast<double>(up - down) / (2.0 * eps);
      const double err = std::fabs(numeric - p->grad[i]) /
                         std::max(1.0, std::fabs(numeric) + std::fabs(p->grad[i]));
      max_err = std::max(max_err, err);
    }
  }
  return max_err;
}

}  // namespace ftpim::testing
