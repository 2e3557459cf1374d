// Per-thread reusable scratch for the packed kernel backend.
//
// Pack buffers are requested on every gemm call but the backing storage is
// thread-local and grows monotonically, so steady-state serving and
// Monte-Carlo evaluation hot paths perform zero heap allocations: a worker
// thread's first conv/gemm sizes the buffers, every later call reuses them.
//
// Slots:
//   a_buffer / b_buffer   packed A / B panels inside gemm_packed
//   scratch_buffer(slot)  caller-side staging (conv dX column panels in
//                         slot 0; MvmHook's default conv staging, the patch
//                         and output matrices, in slots 1/2). Distinct slots
//                         never alias; gemm_packed only touches a/b, so
//                         scratch contents survive a nested gemm call.
//   byte/i32/i64_buffer   integer staging for the quantized crossbar path
//                         (byte 0: int8 activation codes or gathered patch
//                         rows; byte 1: a conv image's cover masks and codes;
//                         i32 0: per-tile column sums; i64 0/1: differential
//                         totals and ABFT mismatch counts). Typed slots are
//                         independent of the float slots and of each other,
//                         so the quantized MVM can nest inside a hook's
//                         default conv staging that holds float scratch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/annotations.hpp"

namespace ftpim::kernels {

class PackArena {
 public:
  static constexpr int kScratchSlots = 3;
  static constexpr int kIntSlots = 2;

  /// The calling thread's arena (thread_local singleton).
  FTPIM_HOT [[nodiscard]] static PackArena& local();

  FTPIM_HOT [[nodiscard]] float* a_buffer(std::size_t n) { return grow(a_, n); }
  FTPIM_HOT [[nodiscard]] float* b_buffer(std::size_t n) { return grow(b_, n); }
  FTPIM_HOT [[nodiscard]] float* scratch_buffer(int slot, std::size_t n);
  FTPIM_HOT [[nodiscard]] std::uint8_t* byte_buffer(int slot, std::size_t n);
  FTPIM_HOT [[nodiscard]] std::int32_t* i32_buffer(int slot, std::size_t n);
  FTPIM_HOT [[nodiscard]] std::int64_t* i64_buffer(int slot, std::size_t n);

 private:
  /// Monotonic growth is the acknowledged slow path: it only runs the first
  /// time a thread sees a new problem size; steady state never reallocates.
  FTPIM_COLD static float* grow(std::vector<float>& buf, std::size_t n) {
    if (buf.size() < n) buf.resize(n);
    return buf.data();
  }
  template <typename T>
  FTPIM_COLD static T* grow_int(std::vector<T>& buf, std::size_t n) {
    if (buf.size() < n) buf.resize(n);
    return buf.data();
  }

  std::vector<float> a_;
  std::vector<float> b_;
  std::vector<float> scratch_[kScratchSlots];
  std::vector<std::uint8_t> bytes_[kIntSlots];
  std::vector<std::int32_t> i32_[kIntSlots];
  std::vector<std::int64_t> i64_[kIntSlots];
};

}  // namespace ftpim::kernels
