// Tests for the design-space explorer and the energy breakdown model.

#include <gtest/gtest.h>

#include "metrics/design_explorer.hpp"
#include "metrics/energy.hpp"

namespace latte {
namespace {

// ------------------------------------------------------------- Explorer --

const std::vector<std::size_t> kCandidates = {10, 30, 64};

TEST(ExplorerTest, EvaluatesFullGrid) {
  const auto res = ExploreDesign(BertBase(), Rte(), kCandidates);
  EXPECT_EQ(res.points.size(), 6u);
}

TEST(ExplorerTest, FindsAFeasiblePointUnderPaperBudget) {
  const auto res = ExploreDesign(BertBase(), Rte(), kCandidates);
  ASSERT_TRUE(res.found_feasible);
  EXPECT_LE(res.best().predicted_drop_pct, 2.0);
}

TEST(ExplorerTest, BestIsFastestFeasible) {
  const auto res = ExploreDesign(BertBase(), Squad(), kCandidates);
  ASSERT_TRUE(res.found_feasible);
  for (const auto& p : res.points) {
    if (p.feasible) {
      EXPECT_LE(p.sequences_per_s, res.best().sequences_per_s + 1e-9);
    }
  }
}

TEST(ExplorerTest, ParetoFrontIsNonDominatedAndSorted) {
  const auto res = ExploreDesign(BertBase(), Squad(), kCandidates);
  const auto front = res.ParetoFront();
  ASSERT_FALSE(front.empty());
  for (std::size_t i = 1; i < front.size(); ++i) {
    EXPECT_GE(front[i - 1].sequences_per_s, front[i].sequences_per_s);
    // Along the front, giving up throughput must buy accuracy.
    EXPECT_GE(front[i - 1].predicted_drop_pct + 1e-12,
              front[i].predicted_drop_pct);
  }
  // No front member dominated by any feasible point.
  for (const auto& f : front) {
    for (const auto& p : res.points) {
      if (!p.feasible) continue;
      const bool dominates = p.sequences_per_s > f.sequences_per_s &&
                             p.predicted_drop_pct < f.predicted_drop_pct;
      EXPECT_FALSE(dominates);
    }
  }
}

TEST(ExplorerTest, SmallerKIsFasterButLessAccurate) {
  const auto res = ExploreDesign(BertBase(), Squad(), kCandidates);
  const ExplorerPoint* k10 = nullptr;
  const ExplorerPoint* k64 = nullptr;
  for (const auto& p : res.points) {
    if (p.bits != 1) continue;
    if (p.top_k == 10) k10 = &p;
    if (p.top_k == 64) k64 = &p;
  }
  ASSERT_NE(k10, nullptr);
  ASSERT_NE(k64, nullptr);
  EXPECT_GE(k10->sequences_per_s, k64->sequences_per_s);
  EXPECT_GE(k10->predicted_drop_pct, k64->predicted_drop_pct);
}

TEST(ExplorerTest, RejectsEmptyCandidates) {
  EXPECT_THROW(ExploreDesign(BertBase(), Rte(), {}),
               std::invalid_argument);
}

// ------------------------------------------------------ EnergyBreakdown --

TEST(EnergyBreakdownTest, SumsComponents) {
  const auto e = EstimateBatchEnergy(1e9, 1e9, 1e6, 1e6, 0.1);
  EXPECT_NEAR(e.TotalJoules(),
              e.compute_j + e.select_j + e.onchip_j + e.offchip_j +
                  e.static_j,
              1e-12);
  EXPECT_NEAR(e.static_j, 1.2, 1e-9);  // 12 W * 0.1 s
}

TEST(EnergyBreakdownTest, HbmCostsMoreThanBram) {
  const auto e = EstimateBatchEnergy(0, 0, 1e9, 1e9, 0);
  EXPECT_GT(e.offchip_j, 10.0 * e.onchip_j);
}

TEST(EnergyBreakdownTest, LutOpsCheaperThanDspMacs) {
  const auto e = EstimateBatchEnergy(1e9, 1e9, 0, 0, 0);
  EXPECT_GT(e.compute_j, 5.0 * e.select_j);
}

TEST(EnergyBreakdownTest, RejectsNegative) {
  EXPECT_THROW(EstimateBatchEnergy(-1, 0, 0, 0, 0), std::invalid_argument);
}

TEST(EnergyBreakdownTest, SparseAttentionSavesEnergy) {
  // Dense attention at n=512: n^2*d MACs; sparse at k=30: n*k*d MACs plus
  // n^2*d 1-bit LUT ops.  The sparse configuration must win on energy.
  const double n = 512, d = 64, k = 30;
  const auto dense = EstimateBatchEnergy(n * n * d, 0, 0, 0, 0);
  const auto sparse = EstimateBatchEnergy(n * k * d, n * n * d, 0, 0, 0);
  EXPECT_LT(sparse.TotalJoules(), dense.TotalJoules());
}

}  // namespace
}  // namespace latte
