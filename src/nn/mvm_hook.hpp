// Inference-time MVM replacement hook.
//
// A crossbar-weight layer (Linear, Conv2d) normally computes
// y = x W^T through the float GEMM backend. An installed MvmHook replaces
// exactly that product during EVAL-mode forward — training forwards and all
// backward paths ignore hooks, so a hooked model still trains normally.
//
// This is how hardware simulations slot under an unchanged model graph: the
// quantized crossbar engine (src/reram/qinfer/) implements MvmHook and gets
// to see the same activations the layer would have fed its GEMM. Linear
// calls mvm_batch with its [batch, in] rows; Conv2d calls conv_image once per
// image, whose default lowers the image to [out_h*out_w, C*kh*kw] patch rows
// and calls mvm_batch (batch = output pixels, in = patch features).
//
// Contract:
//   * mvm_batch / conv_image must treat x as const, fully overwrite y, and
//     retain neither pointer past the call;
//   * implementations must be safe to call concurrently from multiple
//     threads (Conv2d invokes the hook from its per-image parallel loop);
//   * hooks are installed via shared_ptr and are intentionally DROPPED by
//     Module::clone() — a clone is a fresh software model; whoever deploys
//     it to simulated hardware installs new hooks bound to new engine state.
#pragma once

#include <cstdint>

#include "src/tensor/im2col.hpp"

namespace ftpim {

class MvmHook {
 public:
  virtual ~MvmHook() = default;

  /// y[batch, out] = x[batch, in] * W_effective^T.
  virtual void mvm_batch(const float* x, std::int64_t batch, float* y) const = 0;

  /// One image of an eval-mode convolution (in_features() == g.col_rows()):
  /// x is [in_c, in_h, in_w], y is [out, out_h * out_w]. The default stages
  /// the image through mvm_batch — im2col, transpose to [pixels, in],
  /// mvm_batch, transpose back — in arena float slots 1/2, so a hook that
  /// implements only mvm_batch serves convolutions unchanged. An override
  /// must produce the default's bits.
  virtual void conv_image(const float* x, const ConvGeometry& g, float* y) const;

  [[nodiscard]] virtual std::int64_t in_features() const noexcept = 0;
  [[nodiscard]] virtual std::int64_t out_features() const noexcept = 0;
};

}  // namespace ftpim
