// Thread-parallel loop helper.
//
// Uses a std::thread splitter with grain control that keeps tiny loops serial
// (thread spawn costs more than the work on 2-core hosts). Parallel regions
// do not nest: a parallel_for_chunks issued from inside a worker thread runs
// serial, so coarse outer loops (e.g. the defect evaluator fanning out
// Monte-Carlo runs) are never oversubscribed by the per-image parallelism
// inside Conv2d::forward.
#pragma once

#include <cstddef>
#include <functional>

namespace ftpim {

/// Number of worker threads parallel_for_chunks will use: set_num_threads()
/// override if active, else env FTPIM_THREADS, else hardware_concurrency.
/// FTPIM_THREADS is parsed strictly (env_int): a malformed or
/// out-of-range value throws ContractViolation on the first call instead of
/// silently falling back — the worker count decides wall-clock AND chunking,
/// so a typo must be loud.
[[nodiscard]] int num_threads();

/// Overrides the worker count at runtime (n >= 1); n <= 0 clears the
/// override, falling back to FTPIM_THREADS / hardware_concurrency. Intended
/// for tests (thread-count invariance checks) and embedding hosts that
/// manage their own thread budget. Safe to call concurrently with
/// num_threads() and with running parallel loops: the override is a single
/// release/acquire atomic (documented in parallel.cpp), so concurrent
/// override + read is formally race-free; loops already dispatched keep the
/// worker count they read at entry.
void set_num_threads(int n) noexcept;

/// Runs fn(chunk_begin, chunk_end) over at most num_threads() contiguous
/// chunks of ceil(trip / threads) indices, one thread each. Runs
/// fn(begin, end) on the caller when the trip count is below
/// min_parallel_trip, only one worker is configured, or the caller is itself
/// a worker (no nested parallelism). Coarse per-index bodies (one image per
/// index) pass min_parallel_trip = 2.
///
/// An exception thrown by fn reaches the caller as it would at one thread:
/// every started worker is joined first, then the lowest chunk's exception
/// is rethrown. A body that stops at its first failing index therefore
/// reports the lowest failing index at any thread count.
void parallel_for_chunks(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& fn,
                         std::size_t min_parallel_trip = 1024);

}  // namespace ftpim
