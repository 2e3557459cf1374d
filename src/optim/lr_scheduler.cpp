#include "src/optim/lr_scheduler.hpp"

#include "src/common/check.hpp"

#include <cmath>

namespace ftpim {

float cosine_annealed_lr(float base_lr, float eta_min, int epoch, int total_epochs) {
  FTPIM_CHECK(!(base_lr <= 0.0f || eta_min < 0.0f || eta_min > base_lr),
              "cosine_annealed_lr: invalid lr range");
  if (total_epochs <= 1) return base_lr;
  const float t = static_cast<float>(epoch) / static_cast<float>(total_epochs);
  return eta_min +
         (base_lr - eta_min) * 0.5f * (1.0f + std::cos(3.14159265358979323846f * t));
}

}  // namespace ftpim
