#include "src/common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "src/common/config.hpp"

namespace ftpim {
namespace {

// Worker-count override. Lock-free shared state (see the atomics convention
// in thread_annotations.hpp): written by set_num_threads from any thread,
// read by every parallel_for_chunks dispatch. Release on store / acquire on
// load so a dispatcher that observes a new override also observes everything
// the setting thread did before publishing it; the value itself is a single
// int, so no stronger ordering is needed and TSan sees every access as
// synchronized (tests/parallel_test.cpp hammers this concurrently).
// 0 means "no override" — fall back to FTPIM_THREADS / hardware_concurrency.
std::atomic<int> g_thread_override{0};

// Upper bound accepted from FTPIM_THREADS. Far above any host this runs on;
// it exists so "FTPIM_THREADS=80000" (a pasted PID, say) is rejected as the
// typo it is rather than spawning a machine-killing thread storm.
constexpr int kMaxThreads = 4096;

// Set inside worker threads so nested parallel loops run serial instead of
// spawning threads on top of threads.
thread_local bool t_in_worker = false;

}  // namespace

int num_threads() {
  const int override_n = g_thread_override.load(std::memory_order_acquire);
  if (override_n > 0) return override_n;
  // Magic-static init is itself thread-safe; the env is read exactly once.
  // Strict parse: garbage like "8x" throws (tests/parallel_test.cpp covers
  // the helper directly since this static caches the first resolution).
  static const int cached = [] {
    const int hw = static_cast<int>(std::thread::hardware_concurrency());
    const int fallback = hw > 0 ? hw : 2;
    return env_int("FTPIM_THREADS", fallback, 1, kMaxThreads);
  }();
  return cached;
}

void set_num_threads(int n) noexcept {
  g_thread_override.store(n > 0 ? n : 0, std::memory_order_release);
}

void parallel_for_chunks(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& fn,
                         std::size_t min_parallel_trip) {
  if (begin >= end) return;
  const std::size_t trip = end - begin;
  const int workers = num_threads();
  if (t_in_worker || workers <= 1 || trip < min_parallel_trip) {
    fn(begin, end);
    return;
  }
  const std::size_t nthreads = std::min<std::size_t>(static_cast<std::size_t>(workers), trip);
  // Each worker parks its exception in its own slot next to its thread
  // handle; the slots never move because the vector is reserved up front.
  struct Worker {
    std::thread thread;
    std::exception_ptr error;
  };
  std::vector<Worker> threads;
  threads.reserve(nthreads);
  const auto join_all = [&threads] {
    for (Worker& w : threads) {
      if (w.thread.joinable()) w.thread.join();
    }
  };
  const std::size_t chunk = (trip + nthreads - 1) / nthreads;
  try {
    for (std::size_t t = 0; t < nthreads; ++t) {
      const std::size_t lo = begin + t * chunk;
      const std::size_t hi = std::min(end, lo + chunk);
      if (lo >= hi) break;
      Worker& w = threads.emplace_back();
      w.thread = std::thread([lo, hi, &fn, &w] {
        t_in_worker = true;
        try {
          fn(lo, hi);
        } catch (...) {
          w.error = std::current_exception();
        }
      });
    }
  } catch (...) {
    join_all();  // a failed spawn must not leave running workers behind
    throw;
  }
  join_all();
  // Chunks are contiguous and each stops at its first failure, so the lowest
  // chunk's exception is the one a one-thread run would have thrown.
  for (const Worker& w : threads) {
    if (w.error) std::rethrow_exception(w.error);
  }
}

}  // namespace ftpim
