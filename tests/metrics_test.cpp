// Tests for fidelity metrics, the calibrated accuracy model, the energy
// model, platform models and the report helpers.

#include <gtest/gtest.h>

#include "metrics/accuracy.hpp"
#include "metrics/energy.hpp"
#include "metrics/fidelity.hpp"
#include "metrics/report.hpp"
#include "platform/platform.hpp"

namespace latte {
namespace {

AttentionProblem Problem(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  AttentionWorkloadConfig cfg;
  return GenerateAttentionProblem(rng, n, cfg);
}

// -------------------------------------------------------------- Fidelity --

TEST(FidelityTest, PerfectWhenKCoversAll) {
  const auto p = Problem(1, 32);
  SparseAttentionConfig cfg;
  cfg.top_k = 32;
  const auto rep = EvaluateFidelity(p, cfg);
  EXPECT_NEAR(rep.topk_recall, 1.0, 1e-9);
  EXPECT_NEAR(rep.retained_mass, 1.0, 1e-6);
  EXPECT_NEAR(rep.output_cosine, 1.0, 1e-5);
  EXPECT_LT(rep.output_rel_error, 1e-3);
}

TEST(FidelityTest, MassGrowsWithK) {
  const auto p = Problem(2, 160);
  double prev = 0;
  for (std::size_t k : {5u, 15u, 40u, 120u}) {
    SparseAttentionConfig cfg;
    cfg.top_k = k;
    const auto rep = EvaluateFidelity(p, cfg);
    EXPECT_GE(rep.retained_mass, prev - 0.02) << "k=" << k;
    prev = rep.retained_mass;
  }
}

TEST(FidelityTest, OracleSelectionRetainsMoreMassThanQuantized) {
  const auto p = Problem(3, 128);
  SparseAttentionConfig cfg;
  cfg.top_k = 16;
  SparseAttentionStats stats;
  SparseAttention(p.q, p.k, p.v, cfg, &stats);
  std::vector<std::uint32_t> oracle;
  for (const auto& row : ExactTopKCandidates(p.q, p.k, 16)) {
    oracle.insert(oracle.end(), row.begin(), row.end());
  }
  const double quant_mass = RetainedSoftmaxMass(p.q, p.k, stats.candidates,
                                                stats.selected_per_row);
  const double oracle_mass = RetainedSoftmaxMass(p.q, p.k, oracle, 16);
  EXPECT_GE(oracle_mass, quant_mass - 1e-9);
}

TEST(FidelityTest, FourBitSelectionAtLeastAsGoodAsOneBit) {
  const auto p = Problem(4, 128);
  auto mass_at = [&](int bits) {
    SparseAttentionConfig cfg;
    cfg.top_k = 16;
    cfg.bits = bits;
    return EvaluateFidelity(p, cfg).retained_mass;
  };
  EXPECT_GE(mass_at(4), mass_at(1) - 0.02);
}

// -------------------------------------------------------------- Accuracy --

TEST(AccuracyTest, NoLossNoDrop) {
  for (const auto& spec : DatasetZoo()) {
    EXPECT_DOUBLE_EQ(PredictedDrop(spec, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(PredictedScore(spec, 1.0), spec.baseline_score);
  }
}

TEST(AccuracyTest, DropMonotoneInLostMass) {
  const auto spec = Rte();
  double prev = -1;
  for (double mass : {0.99, 0.95, 0.9, 0.8, 0.6, 0.3}) {
    const double d = PredictedDrop(spec, mass);
    EXPECT_GT(d, prev);
    prev = d;
  }
}

TEST(AccuracyTest, PaperShapeAtTypicalMasses) {
  // Top-30-like retained mass (~0.95) must lose < 2%; Top-10-like (~0.88)
  // must lose noticeably more.
  for (const auto& spec : DatasetZoo()) {
    EXPECT_LT(PredictedDrop(spec, 0.95), 2.0) << spec.name;
    EXPECT_GT(PredictedDrop(spec, 0.82), 2.0) << spec.name;
  }
}

TEST(AccuracyTest, ScoreFlooredAtZero) {
  EXPECT_EQ(PredictedScore(Rte(), 0.0), 0.0);
}

TEST(AccuracyTest, RteMostSensitive) {
  const double mass = 0.85;
  EXPECT_GT(PredictedDrop(Rte(), mass), PredictedDrop(Mrpc(), mass));
}

// ---------------------------------------------------------------- Energy --

TEST(EnergyTest, FpgaPowerInPlausibleRange) {
  const auto spec = AlveoU280Slr0();
  EXPECT_NEAR(FpgaPowerWatts(spec, 1.0), 35.0, 1.0);
  EXPECT_NEAR(FpgaPowerWatts(spec, 0.0), 12.0, 1.0);
  EXPECT_THROW(FpgaPowerWatts(spec, 1.5), std::invalid_argument);
}

TEST(EnergyTest, EfficiencyMath) {
  EXPECT_NEAR(EnergyEfficiency(3600, 35.0), 102.9, 0.2);
  EXPECT_THROW(EnergyEfficiency(100, 0.0), std::invalid_argument);
}

TEST(EnergyTest, CitedRowsMatchPaperTable2) {
  const auto rows = CitedTable2Rows();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].work, "GPU V100: E.T. [18]");
  EXPECT_DOUBLE_EQ(rows[0].gops, 7550);
  EXPECT_DOUBLE_EQ(rows[3].gop_per_j, 382);
  for (const auto& r : rows) EXPECT_TRUE(r.cited);
}

TEST(EnergyTest, GeoMean) {
  EXPECT_DOUBLE_EQ(GeoMean({4.0, 1.0}), 2.0);
  EXPECT_NEAR(GeoMean({2.0, 8.0}), 4.0, 1e-12);
  EXPECT_THROW(GeoMean({}), std::invalid_argument);
  EXPECT_THROW(GeoMean({1.0, -2.0}), std::invalid_argument);
}

// -------------------------------------------------------------- Platform --

TEST(PlatformTest, ZooHasThreeBaselines) {
  EXPECT_EQ(XeonGold5218().name, "CPU Xeon Gold 5218");
  EXPECT_EQ(JetsonTx2().name, "Jetson TX2");
  EXPECT_EQ(QuadroRtx6000().name, "Quadro RTX 6000");
}

TEST(PlatformTest, GpuFasterThanCpu) {
  const auto model = BertBase();
  std::vector<std::size_t> lens(16, 177);
  const auto cpu = RunPlatform(XeonGold5218(), model, lens);
  const auto gpu = RunPlatform(QuadroRtx6000(), model, lens);
  EXPECT_LT(gpu.latency_s, cpu.latency_s);
}

TEST(PlatformTest, PaddingInflatesLatency) {
  const auto model = BertBase();
  std::vector<std::size_t> uniform(8, 200);
  std::vector<std::size_t> skewed = {821, 100, 100, 100, 100, 100, 100, 100};
  // Same useful tokens would be even lower for skewed; check padding waste:
  const auto a = RunPlatform(QuadroRtx6000(), model, skewed);
  EXPECT_GT(a.computed_flops, a.useful_dense_flops * 2);
}

TEST(PlatformTest, AttentionShareGrowsWithLength) {
  // The O(n^2) attention share must grow with sequence length once the
  // kernels are large enough to saturate the device (batch 16).
  const auto model = BertBase();
  const auto p = QuadroRtx6000();
  const std::vector<std::size_t> short_lens(16, 128);
  const std::vector<std::size_t> long_lens(16, 821);
  const auto short_seq = RunPlatform(p, model, short_lens);
  const auto long_seq = RunPlatform(p, model, long_lens);
  EXPECT_GT(long_seq.attention_latency_s / long_seq.latency_s,
            short_seq.attention_latency_s / short_seq.latency_s);
}

// ---------------------------------------------------------------- Report --

TEST(ReportTest, TableRendersAligned) {
  TextTable t({"a", "bbbb"});
  t.AddRow({"xx", "y"});
  const std::string out = t.Render();
  EXPECT_NE(out.find("| a  | bbbb |"), std::string::npos);
  EXPECT_NE(out.find("| xx | y    |"), std::string::npos);
}

TEST(ReportTest, RowArityEnforced) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.AddRow({"only-one"}), std::invalid_argument);
}

TEST(ReportTest, Formatting) {
  EXPECT_EQ(Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(FmtX(12.34, 1), "12.3x");
}

}  // namespace
}  // namespace latte
