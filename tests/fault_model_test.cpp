#include <gtest/gtest.h>

#include <cmath>

#include "src/reram/defect_map.hpp"
#include "src/reram/fault_model.hpp"

namespace ftpim {
namespace {

TEST(StuckAtFaultModel, Validation) {
  EXPECT_THROW(StuckAtFaultModel(-0.1), std::invalid_argument);
  EXPECT_THROW(StuckAtFaultModel(1.1), std::invalid_argument);
  EXPECT_THROW(StuckAtFaultModel(0.1, -0.1), std::invalid_argument);
  EXPECT_THROW(StuckAtFaultModel(0.1, 1.1), std::invalid_argument);
}

TEST(StuckAtFaultModel, PaperSplitArithmetic) {
  const StuckAtFaultModel model(0.1079);
  // Paper ratio 1.75 : 9.04 -> P_sa0 = 0.0175, P_sa1 = 0.0904 at P_sa=0.1079.
  EXPECT_NEAR(model.p_sa0(), 0.0175, 1e-6);
  EXPECT_NEAR(model.p_sa1(), 0.0904, 1e-6);
}

TEST(StuckAtFaultModel, ZeroRateNeverFaults) {
  const StuckAtFaultModel model(0.0);
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(model.sample(rng), FaultType::kNone);
}

TEST(StuckAtFaultModel, FullRateAlwaysFaults) {
  const StuckAtFaultModel model(1.0, 0.3);
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) EXPECT_NE(model.sample(rng), FaultType::kNone);
}

TEST(StuckAtFaultModel, SampleFrequenciesMatchRates) {
  const StuckAtFaultModel model(0.05);  // paper split
  Rng rng(3);
  const int n = 200000;
  int sa0 = 0, sa1 = 0;
  for (int i = 0; i < n; ++i) {
    switch (model.sample(rng)) {
      case FaultType::kStuckOff: ++sa0; break;
      case FaultType::kStuckOn: ++sa1; break;
      default: break;
    }
  }
  EXPECT_NEAR(static_cast<double>(sa0 + sa1) / n, 0.05, 0.003);
  EXPECT_NEAR(static_cast<double>(sa0) / n, model.p_sa0(), 0.002);
  EXPECT_NEAR(static_cast<double>(sa1) / n, model.p_sa1(), 0.003);
}

TEST(DefectMap, ZeroRateIsEmpty) {
  Rng rng(4);
  const DefectMap map = DefectMap::sample(10000, StuckAtFaultModel(0.0), rng);
  EXPECT_EQ(map.fault_count(), 0);
  EXPECT_EQ(map.cell_count(), 10000);
}

TEST(DefectMap, ObservedRateMatchesTarget) {
  Rng rng(5);
  const std::int64_t cells = 500000;
  const DefectMap map = DefectMap::sample(cells, StuckAtFaultModel(0.01), rng);
  EXPECT_NEAR(map.observed_rate(), 0.01, 0.001);
}

TEST(DefectMap, GeometricSkippingMatchesBernoulliStatistics) {
  // The geometric-gap sampler must match a naive per-cell Bernoulli draw in
  // distribution: compare fault-count means over repeated maps.
  const StuckAtFaultModel model(0.02);
  const std::int64_t cells = 20000;
  double sum = 0.0;
  const int reps = 50;
  for (int r = 0; r < reps; ++r) {
    Rng rng(100 + static_cast<std::uint64_t>(r));
    sum += static_cast<double>(DefectMap::sample(cells, model, rng).fault_count());
  }
  EXPECT_NEAR(sum / reps / static_cast<double>(cells), 0.02, 0.002);
}

TEST(DefectMap, IndicesSortedUniqueInRange) {
  Rng rng(6);
  const DefectMap map = DefectMap::sample(50000, StuckAtFaultModel(0.05), rng);
  std::int64_t prev = -1;
  for (const CellFault& f : map.faults()) {
    EXPECT_GT(f.cell_index, prev);
    EXPECT_LT(f.cell_index, 50000);
    EXPECT_NE(f.type, FaultType::kNone);
    prev = f.cell_index;
  }
}

TEST(DefectMap, TypeSplitMatchesPaperRatio) {
  Rng rng(7);
  const DefectMap map = DefectMap::sample(1000000, StuckAtFaultModel(0.02), rng);
  const double sa0_frac = static_cast<double>(map.count(FaultType::kStuckOff)) /
                          static_cast<double>(map.fault_count());
  EXPECT_NEAR(sa0_frac, kPaperSa0Fraction, 0.01);
}

TEST(DefectMap, PerDeviceDeterminism) {
  // A device's map is a pure function of derive_seed(master_seed, device).
  const StuckAtFaultModel model(0.01);
  const auto sample_device = [&](std::uint64_t device) {
    Rng rng(derive_seed(42, device));
    return DefectMap::sample(10000, model, rng);
  };
  const DefectMap a = sample_device(3);
  const DefectMap b = sample_device(3);
  ASSERT_EQ(a.fault_count(), b.fault_count());
  for (std::size_t i = 0; i < a.faults().size(); ++i) {
    EXPECT_EQ(a.faults()[i].cell_index, b.faults()[i].cell_index);
    EXPECT_EQ(a.faults()[i].type, b.faults()[i].type);
  }
  const DefectMap c = sample_device(4);
  bool differs = a.fault_count() != c.fault_count();
  for (std::size_t i = 0; !differs && i < std::min(a.faults().size(), c.faults().size()); ++i) {
    differs = a.faults()[i].cell_index != c.faults()[i].cell_index;
  }
  EXPECT_TRUE(differs);
}

TEST(DefectMap, FullRateHitsEveryCell) {
  Rng rng(8);
  const DefectMap map = DefectMap::sample(1000, StuckAtFaultModel(1.0), rng);
  EXPECT_EQ(map.fault_count(), 1000);
}

}  // namespace
}  // namespace ftpim
