// Int8 quantized MVM kernels — the integer compute core of the quantized
// crossbar inference engine (src/reram/qinfer/).
//
// The operands are what the hardware sees, not floats:
//
//   A   int8 activation codes, row-major [m, k] (symmetric per-batch
//       quantization, |code| <= 127), one row per batch sample;
//   B   uint8 conductance LEVEL INDICES of one crossbar tile, logically
//       [k, n] (k = wordlines, n = bitlines), pre-packed by pack_levels();
//   C   int32 column accumulators, row-major [m, n] (overwritten, not
//       accumulated — the caller applies the ADC transfer per tile and then
//       accumulates across row tiles itself).
//
// Packed-B layout ("k-pair interleave", fixed across kernel levels): columns
// are grouped into kQNR-wide panels; within a panel, K advances in pairs and
// each pair stores 2*kQNR bytes
//
//   panel[jp], pair p, byte 2*j + s  =  B(2*p + s, jp*kQNR + j)   (s in {0,1})
//
// i.e. exactly the operand order _mm256_madd_epi16 consumes after a u8->i16
// widen. Edge columns and an odd trailing K row are zero-filled at pack time;
// a level index of zero contributes nothing to the dot product, so padding
// never changes a result. Weights are static once a tile is programmed, so
// packing runs once per (re)program/fault event — never per MVM.
//
// Determinism: everything here is int8*u8 -> int32 accumulation, which is
// exact and fully associative. Unlike the float GEMM, results are
// bit-identical across BOTH thread counts and kernel levels (scalar vs AVX2)
// — tests assert exact equality, not a tolerance.
//
// Overflow bound: |acc| <= k * 127 * 255 — a 128-wordline tile stays below
// 4.2e6, and even k = 65535 (the packed format's practical ceiling) fits
// int32 with 500x headroom.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/tensor/kernels/dispatch.hpp"
#include "src/tensor/kernels/kernel_params.hpp"

namespace ftpim::kernels {

/// Column-panel width of the packed level layout (one 32-byte k-pair row).
inline constexpr std::int64_t kQNR = 16;

/// Bytes pack_levels() writes for a logical [k, n] level matrix.
[[nodiscard]] constexpr std::size_t packed_levels_bytes(std::int64_t k, std::int64_t n) {
  return static_cast<std::size_t>(ceil_div(n, kQNR) * ceil_div(k, 2) * 2 * kQNR);
}

/// Packs row-major u8 levels[k, n] (leading dimension ldb >= n) into the
/// k-pair interleaved panel layout described above. dst must hold
/// packed_levels_bytes(k, n); padding bytes are zeroed. The panel stride of
/// the layout is ceil(k/2)*2*kQNR — a function of k — so the kernel MUST be
/// invoked with the same k the buffer was packed with.
void pack_levels(const std::uint8_t* levels, std::int64_t k, std::int64_t n, std::int64_t ldb,
                 std::uint8_t* dst);

/// c[i, j] = sum_p a[i*lda + p] * B(p, j), p < k — C overwritten.
/// When k is odd the kernels read a[i*lda + k] as the partner of the last
/// pair: callers must zero-pad each A row to even length (lda >= k + (k & 1)).
using QmvmKernel = void (*)(std::int64_t m, std::int64_t n, std::int64_t k, const std::int8_t* a,
                            std::int64_t lda, const std::uint8_t* packed_b, std::int32_t* c,
                            std::int64_t ldc);

/// Portable reference kernel (the FTPIM_KERNEL=scalar path).
void qmvm_scalar(std::int64_t m, std::int64_t n, std::int64_t k, const std::int8_t* a,
                 std::int64_t lda, const std::uint8_t* packed_b, std::int32_t* c,
                 std::int64_t ldc);

/// AVX2 kernel: 4-row x 16-column i32 tiles via u8/i8 -> i16 widening and
/// _mm256_madd_epi16 (pairwise i16 multiply-add; never saturates, so any
/// level count up to 256 is exact). A last panel with at most 8 valid
/// columns behind a full panel (a tile's checksum digits behind its data
/// columns) is computed in the full panel's pass, low half only. Falls back
/// to qmvm_scalar when the TU was built without AVX2; the dispatcher never
/// selects it there.
void qmvm_avx2(std::int64_t m, std::int64_t n, std::int64_t k, const std::int8_t* a,
               std::int64_t lda, const std::uint8_t* packed_b, std::int32_t* c, std::int64_t ldc);

/// Level -> function pointer; follows the same KernelLevel dispatch (CPUID +
/// FTPIM_KERNEL override) as the float micro-kernels.
[[nodiscard]] QmvmKernel select_qmvm_kernel(KernelLevel level) noexcept;

}  // namespace ftpim::kernels
