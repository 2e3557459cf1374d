#include "src/nn/mvm_hook.hpp"

#include "src/tensor/kernels/pack_arena.hpp"

namespace ftpim {

void MvmHook::conv_image(const float* x, const ConvGeometry& g, float* y) const {
  // Float scratch slots 1/2 — disjoint from the conv-dX slab (0); a
  // quantized engine underneath only touches the typed integer slots.
  const std::int64_t col_rows = g.col_rows();  // in_c * kh * kw
  const std::int64_t pixels = g.col_cols();
  const std::int64_t out = out_features();
  kernels::PackArena& arena = kernels::PackArena::local();
  float* col = arena.scratch_buffer(1, static_cast<std::size_t>(col_rows * pixels));
  im2col(x, g, col);
  float* patches = arena.scratch_buffer(2, static_cast<std::size_t>(pixels * col_rows));
  for (std::int64_t p = 0; p < pixels; ++p) {
    for (std::int64_t r = 0; r < col_rows; ++r) patches[p * col_rows + r] = col[r * pixels + p];
  }
  // col is dead past this point; its slot restages as the hook output.
  float* yb = arena.scratch_buffer(1, static_cast<std::size_t>(pixels * out));
  mvm_batch(patches, pixels, yb);
  for (std::int64_t c = 0; c < out; ++c) {
    for (std::int64_t p = 0; p < pixels; ++p) y[c * pixels + p] = yb[p * out + c];
  }
}

}  // namespace ftpim
