// Cell-level crossbar tour: program a weight matrix onto tiled ReRAM
// crossbars, apply per-device defect maps, and compare the MVM through the
// read-back effective weights against the ideal digital result — including
// the agreement between the cell-level engine and the fast weight-space
// injector used during training.
#include <cmath>
#include <cstdio>
#include <vector>

#include "src/common/config.hpp"
#include "src/common/rng.hpp"
#include "src/reram/crossbar_engine.hpp"
#include "src/reram/defect_map.hpp"
#include "src/reram/fault_injector.hpp"
#include "src/tensor/gemm.hpp"
#include "src/tensor/tensor.hpp"

namespace {

using namespace ftpim;

double rel_error(const std::vector<float>& a, const std::vector<float>& b) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += (a[i] - b[i]) * (a[i] - b[i]);
    den += b[i] * b[i];
  }
  return std::sqrt(num / (den + 1e-12));
}

/// y = W x through the packed GEMM backend.
std::vector<float> matvec(const Tensor& w, const std::vector<float>& x) {
  std::vector<float> y(static_cast<std::size_t>(w.dim(0)), 0.0f);
  gemm(w.dim(0), 1, w.dim(1), 1.0f, w.data(), x.data(), 0.0f, y.data());
  return y;
}

}  // namespace

int main() {
  using namespace ftpim;
  const std::int64_t out = env_int("FTPIM_OUT", 96, 1);
  const std::int64_t in = env_int("FTPIM_IN", 200, 1);

  // A random "layer" to deploy.
  Tensor w(Shape{out, in});
  Rng rng(42);
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = 0.2f * rng.normal();

  CrossbarEngineConfig cfg;
  cfg.tile_rows = 128;
  cfg.tile_cols = 128;
  CrossbarEngine engine(w, cfg);
  std::printf("weight matrix [%lld x %lld] -> %lld crossbar tiles (%lld cells)\n",
              static_cast<long long>(out), static_cast<long long>(in),
              static_cast<long long>(engine.tile_count()),
              static_cast<long long>(engine.total_cells()));

  std::vector<float> x(static_cast<std::size_t>(in));
  for (auto& v : x) v = rng.uniform(-1.0f, 1.0f);
  const std::vector<float> y_ideal = matvec(w, x);
  std::printf("defect-free crossbar MVM vs ideal GEMM: rel. error %.2e\n\n",
              rel_error(matvec(engine.read_back(), x), y_ideal));

  std::printf("%-8s %-12s %-14s %-12s\n", "P_sa", "stuck cells", "MVM rel.err", "readback L2");
  for (const double p_sa : {0.001, 0.01, 0.05, 0.1}) {
    // A fresh die: clear the previous device's faults, then draw this one's
    // map over the 2 * out * in model cells.
    engine.clear_defects();
    Rng die_rng(derive_seed(/*master_seed=*/7, static_cast<std::uint64_t>(p_sa * 1e6)));
    engine.apply_defect_map(DefectMap::sample(2 * out * in, StuckAtFaultModel(p_sa), die_rng));
    const Tensor w_eff = engine.read_back();
    double diff = 0.0;
    for (std::int64_t i = 0; i < w.numel(); ++i) {
      diff += (w_eff[i] - w[i]) * (w_eff[i] - w[i]);
    }
    std::printf("%-8g %-12lld %-14.3e %-12.4f\n", p_sa,
                static_cast<long long>(engine.stuck_cells()),
                rel_error(matvec(w_eff, x), y_ideal), std::sqrt(diff));
  }

  // Fast path equivalence: weight-space injector matches cell-level stats.
  Tensor w_fast;
  Rng inj_rng(123);
  const InjectionStats stats =
      apply_stuck_at_faults(w, w_fast, StuckAtFaultModel(0.05), InjectorConfig{}, inj_rng);
  std::printf("\nweight-space injector at P_sa=0.05: %lld/%lld cells faulted (rate %.4f)\n",
              static_cast<long long>(stats.faulted_cells), static_cast<long long>(stats.cells),
              stats.cell_fault_rate());
  return 0;
}
