// Learning-rate schedule. The paper uses cosine annealing from 0.1.
#pragma once

namespace ftpim {

/// LR for 0-based epoch `epoch` of `total_epochs` under cosine annealing:
/// lr(t) = eta_min + (base - eta_min) * (1 + cos(pi * t / T)) / 2.
/// Requires base_lr > 0 and 0 <= eta_min <= base_lr.
[[nodiscard]] float cosine_annealed_lr(float base_lr, float eta_min, int epoch, int total_epochs);

}  // namespace ftpim
