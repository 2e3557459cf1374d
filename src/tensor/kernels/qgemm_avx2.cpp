// AVX2 int8 MVM kernel — with microkernel_avx2.cpp, one of the two TUs in
// the tree allowed raw SIMD intrinsics (simd-intrinsics lint rule confines
// them to src/tensor/kernels/); built with -mavx2 -mfma on x86 (see
// src/CMakeLists.txt). Integer arithmetic is exact, so this kernel is
// bit-identical to qmvm_scalar — the dpbusd-style k-pair layout is consumed
// through u8/i8 -> i16 widening and _mm256_madd_epi16, which cannot
// saturate (two i16 products always fit an i32 lane), unlike the
// _mm256_maddubs_epi16 shortcut that clips at level counts above 128.
#include "src/tensor/kernels/qgemm.hpp"

#include <algorithm>

#include "src/common/annotations.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace ftpim::kernels {
namespace {

/// One A k-pair [a(2p), a(2p+1)] widened to i16 and broadcast to every
/// 32-bit lane — the second madd operand for all 16 columns of a panel row.
inline __m256i broadcast_pair(const std::int8_t* a) noexcept {
  const std::uint32_t lo = static_cast<std::uint16_t>(static_cast<std::int16_t>(a[0]));
  const std::uint32_t hi = static_cast<std::uint16_t>(static_cast<std::int16_t>(a[1]));
  return _mm256_set1_epi32(static_cast<std::int32_t>(lo | (hi << 16)));
}

/// A full panel and the last panel behind it, which holds at most 8 valid
/// columns (a tile's checksum digits behind its data columns), in one pass:
/// those columns live in the low 16 bytes of each k-pair row, so only that
/// half is widened, and each A broadcast feeds 24 columns instead of 16 + 16
/// in two passes.
FTPIM_HOT void panel_and_half(std::int64_t m, std::int64_t pairs, const std::int8_t* a,
                              std::int64_t lda, const std::uint8_t* panel, std::int32_t* c,
                              std::int64_t ldc, std::int64_t jn_half) noexcept {
  const std::uint8_t* next = panel + pairs * 2 * kQNR;
  alignas(32) std::int32_t buf[4 * 8];
  std::int64_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const std::int8_t* a0 = a + (i + 0) * lda;
    const std::int8_t* a1 = a + (i + 1) * lda;
    const std::int8_t* a2 = a + (i + 2) * lda;
    const std::int8_t* a3 = a + (i + 3) * lda;
    __m256i r0a = _mm256_setzero_si256(), r0b = _mm256_setzero_si256();
    __m256i r1a = _mm256_setzero_si256(), r1b = _mm256_setzero_si256();
    __m256i r2a = _mm256_setzero_si256(), r2b = _mm256_setzero_si256();
    __m256i r3a = _mm256_setzero_si256(), r3b = _mm256_setzero_si256();
    __m256i r0h = _mm256_setzero_si256(), r1h = _mm256_setzero_si256();
    __m256i r2h = _mm256_setzero_si256(), r3h = _mm256_setzero_si256();
    for (std::int64_t p = 0; p < pairs; ++p) {
      const __m256i bytes =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(panel + p * 2 * kQNR));
      const __m256i blo = _mm256_cvtepu8_epi16(_mm256_castsi256_si128(bytes));
      const __m256i bhi = _mm256_cvtepu8_epi16(_mm256_extracti128_si256(bytes, 1));
      const __m256i bh = _mm256_cvtepu8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(next + p * 2 * kQNR)));
      __m256i av;
      av = broadcast_pair(a0 + 2 * p);
      r0a = _mm256_add_epi32(r0a, _mm256_madd_epi16(blo, av));
      r0b = _mm256_add_epi32(r0b, _mm256_madd_epi16(bhi, av));
      r0h = _mm256_add_epi32(r0h, _mm256_madd_epi16(bh, av));
      av = broadcast_pair(a1 + 2 * p);
      r1a = _mm256_add_epi32(r1a, _mm256_madd_epi16(blo, av));
      r1b = _mm256_add_epi32(r1b, _mm256_madd_epi16(bhi, av));
      r1h = _mm256_add_epi32(r1h, _mm256_madd_epi16(bh, av));
      av = broadcast_pair(a2 + 2 * p);
      r2a = _mm256_add_epi32(r2a, _mm256_madd_epi16(blo, av));
      r2b = _mm256_add_epi32(r2b, _mm256_madd_epi16(bhi, av));
      r2h = _mm256_add_epi32(r2h, _mm256_madd_epi16(bh, av));
      av = broadcast_pair(a3 + 2 * p);
      r3a = _mm256_add_epi32(r3a, _mm256_madd_epi16(blo, av));
      r3b = _mm256_add_epi32(r3b, _mm256_madd_epi16(bhi, av));
      r3h = _mm256_add_epi32(r3h, _mm256_madd_epi16(bh, av));
    }
    std::int32_t* crow = c + i * ldc;
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow), r0a);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow + 8), r0b);
    crow += ldc;
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow), r1a);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow + 8), r1b);
    crow += ldc;
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow), r2a);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow + 8), r2b);
    crow += ldc;
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow), r3a);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow + 8), r3b);
    _mm256_store_si256(reinterpret_cast<__m256i*>(buf + 0), r0h);
    _mm256_store_si256(reinterpret_cast<__m256i*>(buf + 8), r1h);
    _mm256_store_si256(reinterpret_cast<__m256i*>(buf + 16), r2h);
    _mm256_store_si256(reinterpret_cast<__m256i*>(buf + 24), r3h);
    for (std::int64_t r = 0; r < 4; ++r) {
      std::int32_t* hrow = c + (i + r) * ldc + kQNR;
      for (std::int64_t j = 0; j < jn_half; ++j) hrow[j] = buf[r * 8 + j];
    }
  }
  for (; i < m; ++i) {
    const std::int8_t* arow = a + i * lda;
    __m256i ra = _mm256_setzero_si256(), rb = _mm256_setzero_si256();
    __m256i rh = _mm256_setzero_si256();
    for (std::int64_t p = 0; p < pairs; ++p) {
      const __m256i bytes =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(panel + p * 2 * kQNR));
      const __m256i blo = _mm256_cvtepu8_epi16(_mm256_castsi256_si128(bytes));
      const __m256i bhi = _mm256_cvtepu8_epi16(_mm256_extracti128_si256(bytes, 1));
      const __m256i bh = _mm256_cvtepu8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(next + p * 2 * kQNR)));
      const __m256i av = broadcast_pair(arow + 2 * p);
      ra = _mm256_add_epi32(ra, _mm256_madd_epi16(blo, av));
      rb = _mm256_add_epi32(rb, _mm256_madd_epi16(bhi, av));
      rh = _mm256_add_epi32(rh, _mm256_madd_epi16(bh, av));
    }
    std::int32_t* crow = c + i * ldc;
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow), ra);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow + 8), rb);
    _mm256_store_si256(reinterpret_cast<__m256i*>(buf), rh);
    for (std::int64_t j = 0; j < jn_half; ++j) crow[kQNR + j] = buf[j];
  }
}

}  // namespace

FTPIM_HOT void qmvm_avx2(std::int64_t m, std::int64_t n, std::int64_t k, const std::int8_t* a,
                         std::int64_t lda, const std::uint8_t* packed_b, std::int32_t* c,
                         std::int64_t ldc) {
  const std::int64_t pairs = ceil_div(k, 2);
  const std::int64_t panels = ceil_div(n, kQNR);
  for (std::int64_t jp = 0; jp < panels; ++jp) {
    const std::uint8_t* panel = packed_b + jp * pairs * 2 * kQNR;
    const std::int64_t j0 = jp * kQNR;
    const std::int64_t jn = std::min<std::int64_t>(kQNR, n - j0);
    if (jp + 2 == panels && n - j0 - kQNR <= kQNR / 2) {
      panel_and_half(m, pairs, a, lda, panel, c + j0, ldc, n - j0 - kQNR);
      break;
    }
    std::int64_t i = 0;
    // 4-row main loop: the widened B pair row is reused by four A rows.
    for (; i + 4 <= m; i += 4) {
      const std::int8_t* a0 = a + (i + 0) * lda;
      const std::int8_t* a1 = a + (i + 1) * lda;
      const std::int8_t* a2 = a + (i + 2) * lda;
      const std::int8_t* a3 = a + (i + 3) * lda;
      __m256i r0a = _mm256_setzero_si256(), r0b = _mm256_setzero_si256();
      __m256i r1a = _mm256_setzero_si256(), r1b = _mm256_setzero_si256();
      __m256i r2a = _mm256_setzero_si256(), r2b = _mm256_setzero_si256();
      __m256i r3a = _mm256_setzero_si256(), r3b = _mm256_setzero_si256();
      for (std::int64_t p = 0; p < pairs; ++p) {
        const __m256i bytes =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(panel + p * 2 * kQNR));
        const __m256i blo = _mm256_cvtepu8_epi16(_mm256_castsi256_si128(bytes));
        const __m256i bhi = _mm256_cvtepu8_epi16(_mm256_extracti128_si256(bytes, 1));
        __m256i av;
        av = broadcast_pair(a0 + 2 * p);
        r0a = _mm256_add_epi32(r0a, _mm256_madd_epi16(blo, av));
        r0b = _mm256_add_epi32(r0b, _mm256_madd_epi16(bhi, av));
        av = broadcast_pair(a1 + 2 * p);
        r1a = _mm256_add_epi32(r1a, _mm256_madd_epi16(blo, av));
        r1b = _mm256_add_epi32(r1b, _mm256_madd_epi16(bhi, av));
        av = broadcast_pair(a2 + 2 * p);
        r2a = _mm256_add_epi32(r2a, _mm256_madd_epi16(blo, av));
        r2b = _mm256_add_epi32(r2b, _mm256_madd_epi16(bhi, av));
        av = broadcast_pair(a3 + 2 * p);
        r3a = _mm256_add_epi32(r3a, _mm256_madd_epi16(blo, av));
        r3b = _mm256_add_epi32(r3b, _mm256_madd_epi16(bhi, av));
      }
      if (jn == kQNR) {
        std::int32_t* crow = c + i * ldc + j0;
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow), r0a);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow + 8), r0b);
        crow += ldc;
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow), r1a);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow + 8), r1b);
        crow += ldc;
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow), r2a);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow + 8), r2b);
        crow += ldc;
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow), r3a);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow + 8), r3b);
      } else {
        // Edge panel: spill the full tile, copy the valid columns. The
        // accumulation arithmetic is identical to the full-width path.
        alignas(32) std::int32_t buf[4 * kQNR];
        _mm256_store_si256(reinterpret_cast<__m256i*>(buf + 0), r0a);
        _mm256_store_si256(reinterpret_cast<__m256i*>(buf + 8), r0b);
        _mm256_store_si256(reinterpret_cast<__m256i*>(buf + 16), r1a);
        _mm256_store_si256(reinterpret_cast<__m256i*>(buf + 24), r1b);
        _mm256_store_si256(reinterpret_cast<__m256i*>(buf + 32), r2a);
        _mm256_store_si256(reinterpret_cast<__m256i*>(buf + 40), r2b);
        _mm256_store_si256(reinterpret_cast<__m256i*>(buf + 48), r3a);
        _mm256_store_si256(reinterpret_cast<__m256i*>(buf + 56), r3b);
        for (std::int64_t r = 0; r < 4; ++r) {
          std::int32_t* crow = c + (i + r) * ldc + j0;
          for (std::int64_t j = 0; j < jn; ++j) crow[j] = buf[r * kQNR + j];
        }
      }
    }
    for (; i < m; ++i) {
      const std::int8_t* arow = a + i * lda;
      __m256i ra = _mm256_setzero_si256(), rb = _mm256_setzero_si256();
      for (std::int64_t p = 0; p < pairs; ++p) {
        const __m256i bytes =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(panel + p * 2 * kQNR));
        const __m256i blo = _mm256_cvtepu8_epi16(_mm256_castsi256_si128(bytes));
        const __m256i bhi = _mm256_cvtepu8_epi16(_mm256_extracti128_si256(bytes, 1));
        const __m256i av = broadcast_pair(arow + 2 * p);
        ra = _mm256_add_epi32(ra, _mm256_madd_epi16(blo, av));
        rb = _mm256_add_epi32(rb, _mm256_madd_epi16(bhi, av));
      }
      if (jn == kQNR) {
        std::int32_t* crow = c + i * ldc + j0;
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow), ra);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow + 8), rb);
      } else {
        alignas(32) std::int32_t buf[kQNR];
        _mm256_store_si256(reinterpret_cast<__m256i*>(buf), ra);
        _mm256_store_si256(reinterpret_cast<__m256i*>(buf + 8), rb);
        std::int32_t* crow = c + i * ldc + j0;
        for (std::int64_t j = 0; j < jn; ++j) crow[j] = buf[j];
      }
    }
  }
}

}  // namespace ftpim::kernels

#else  // portable fallback for builds without AVX2

namespace ftpim::kernels {

FTPIM_HOT void qmvm_avx2(std::int64_t m, std::int64_t n, std::int64_t k, const std::int8_t* a,
                         std::int64_t lda, const std::uint8_t* packed_b, std::int32_t* c,
                         std::int64_t ldc) {
  qmvm_scalar(m, n, k, a, lda, packed_b, c, ldc);
}

}  // namespace ftpim::kernels

#endif
