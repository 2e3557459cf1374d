// Convolution entry points over the packed GEMM backend.
//
// All three operate on a single NCHW sample and never materialize the full
// [C*kh*kw, oh*ow] im2col patch matrix:
//   - forward and dW gather patches inside pack_b_block (kIm2col /
//     kIm2colTrans layouts), so the patch matrix exists only as transient
//     KC x NR panels in the per-thread arena;
//   - dX blocks over pixel panels: a [col_rows, tile] column-gradient slab is
//     computed per panel and scattered with col2im_range before the next.
//
// Callers run these per-sample (typically under a batch-level
// parallel_for_chunks, where the nested GEMM degrades to serial — per-sample
// results are then independent of the batch partition, which is what makes
// Conv2d forward and backward bit-identical across FTPIM_THREADS).
#pragma once

#include <cstdint>

#include "src/tensor/im2col.hpp"

namespace ftpim::kernels {

/// out[out_c, oh*ow] = weight[out_c, col_rows] * patches(image).
void conv_forward_packed(const ConvGeometry& g, const float* weight, std::int64_t out_c,
                         const float* image, float* out);

/// dw[out_c, col_rows] += dout[out_c, oh*ow] * patches(image)^T.
void conv_grad_weight_packed(const ConvGeometry& g, const float* dout, std::int64_t out_c,
                             const float* image, float* dw);

/// dx[C,H,W] += col2im(weight^T * dout), pixel-panel blocked. The caller
/// must pass a zeroed (or accumulation-target) dx.
void conv_grad_input_packed(const ConvGeometry& g, const float* weight, std::int64_t out_c,
                            const float* dout, float* dx);

}  // namespace ftpim::kernels
