#include "src/tensor/kernels/dispatch.hpp"

#include <atomic>
#include <cstring>
#include <string>

#include "src/common/annotations.hpp"
#include "src/common/check.hpp"
#include "src/common/config.hpp"
#include "src/tensor/kernels/microkernel.hpp"

namespace ftpim::kernels {
namespace {

// Test/bench override. -1 = none. Same release/acquire single-word protocol
// as the num_threads override (see src/common/parallel.cpp): concurrent
// set + read is formally race-free, and dispatches already in flight keep
// the level they read at entry.
std::atomic<int> g_level_override{-1};

bool cpu_has_avx2_fma() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

/// One-time FTPIM_KERNEL env resolution behind active_kernel_level()'s magic
/// static — the std::string allocation happens exactly once per process.
/// Strict: an unknown level name throws instead of silently picking `best`.
FTPIM_COLD KernelLevel resolve_default_kernel_level() {
  const KernelLevel best = avx2_available() ? KernelLevel::kAvx2 : KernelLevel::kScalar;
  const std::string env = env_string("FTPIM_KERNEL", "");
  return parse_kernel_env_strict(env.empty() ? nullptr : env.c_str(), best);
}

}  // namespace

bool avx2_available() noexcept {
  static const bool available = kernel_avx2_compiled() && cpu_has_avx2_fma();
  return available;
}

KernelLevel parse_kernel_env_strict(const char* value, KernelLevel fallback) {
  if (value == nullptr || *value == '\0') return fallback;
  if (std::strcmp(value, "scalar") == 0) return KernelLevel::kScalar;
  FTPIM_CHECK(std::strcmp(value, "avx2") == 0,
              "FTPIM_KERNEL: '%s' is not a kernel level (scalar|avx2)", value);
  return avx2_available() ? KernelLevel::kAvx2 : KernelLevel::kScalar;
}

FTPIM_HOT KernelLevel active_kernel_level() {
  const int override_level = g_level_override.load(std::memory_order_acquire);
  if (override_level >= 0) return static_cast<KernelLevel>(override_level);
  // Magic-static init is thread-safe; FTPIM_KERNEL is read exactly once.
  static const KernelLevel resolved = resolve_default_kernel_level();
  return resolved;
}

void set_kernel_level(KernelLevel level) noexcept {
  if (level == KernelLevel::kAvx2 && !avx2_available()) level = KernelLevel::kScalar;
  g_level_override.store(static_cast<int>(level), std::memory_order_release);
}

void clear_kernel_level_override() noexcept {
  g_level_override.store(-1, std::memory_order_release);
}

const char* kernel_level_name(KernelLevel level) noexcept {
  return level == KernelLevel::kAvx2 ? "avx2" : "scalar";
}

}  // namespace ftpim::kernels
