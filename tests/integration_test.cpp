// Cross-module integration tests: the encoder with the sparse operator
// plugged in, the Fig 5 scheduling scenario, and the Fig 7 speedup shape.

#include <gtest/gtest.h>

#include "latte/latte.hpp"

namespace latte {
namespace {

// ----------------------------------------- Encoder + sparse attention ----

TEST(IntegrationTest, EncoderWithSparseAttentionTracksDense) {
  Rng rng(2022);
  EncoderConfig cfg;
  cfg.hidden = 128;
  cfg.heads = 2;
  const auto w = MakeEncoderWeights(rng, cfg);
  const auto x = MakeInputEmbedding(rng, 96, cfg.hidden);

  Workspace ws;
  const auto dense = EncoderForward(x, w, cfg, DenseAttention, ws);
  SparseAttentionConfig sa;
  sa.top_k = 48;  // half the keys
  const auto sparse = EncoderForward(x, w, cfg, MakeSparseAttentionFn(sa), ws);

  ASSERT_EQ(sparse.rows(), dense.rows());
  // LayerNormed outputs: cosine must stay high even through two residual
  // blocks (random weights spread attention, so this is a loose check).
  EXPECT_GT(MeanRowCosine(sparse, dense), 0.95);
}

TEST(IntegrationTest, EncoderSparseEqualsDenseWhenKIsN) {
  Rng rng(7);
  EncoderConfig cfg;
  cfg.hidden = 64;
  cfg.heads = 4;
  const auto w = MakeEncoderWeights(rng, cfg);
  const auto x = MakeInputEmbedding(rng, 24, cfg.hidden);
  SparseAttentionConfig sa;
  sa.top_k = 24;
  Workspace ws;
  const auto a = EncoderForward(x, w, cfg, MakeSparseAttentionFn(sa), ws);
  const auto b = EncoderForward(x, w, cfg, DenseAttention, ws);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a.flat()[i], b.flat()[i], 5e-2f);
  }
}

// ----------------------------------------------------- Fig 5 scenario ----

TEST(IntegrationTest, Fig5ScenarioSavesLatencyAndFillsStages) {
  // Paper's example: batch of 5, lengths 140..72, sorted descending.
  const std::vector<std::size_t> lens = {140, 100, 82, 78, 72};
  const auto ops =
      EncoderOps(BertBase().encoder, AttentionMode::kSparseTopK, 30);
  const auto models = BuildStageTimings(ops, AlveoU280Slr0(), 94.4);
  PipelineSimConfig cfg;
  cfg.layers = 2;  // Fig 5 shows two encoder layers
  const auto res = SimulatePipeline(lens, models, cfg);

  EXPECT_GT(res.Saved(), 0.0);
  const auto util = res.StageUtilization();
  for (double u : util) EXPECT_GT(u, 0.80);
  // 5 sequences x 2 layers x 3 stages jobs were scheduled.
  EXPECT_EQ(res.jobs.size(), 30u);
}

// ------------------------------------------------- Fig 7 speedup shape ---

struct SpeedupResult {
  double cpu = 0, tx2 = 0, gpu = 0, fpga_base = 0;
};

SpeedupResult ComputeSpeedups(const ModelConfig& model,
                              const DatasetSpec& spec) {
  Rng rng(11);
  LengthSampler sampler(spec);
  const auto lens = sampler.SampleMany(rng, 16);

  AcceleratorConfig aware;
  const double ours = RunAccelerator(model, lens, aware).makespan;
  AcceleratorConfig base;
  base.mode = FpgaMode::kBaseline;
  const double fpga_base = RunAccelerator(model, lens, base).makespan;

  const auto cpu = RunPlatform(XeonGold5218(), model, lens);
  const auto tx2 = RunPlatform(JetsonTx2(), model, lens);
  const auto gpu = RunPlatform(QuadroRtx6000(), model, lens);

  SpeedupResult s;
  s.cpu = cpu.latency_s / ours;
  s.tx2 = tx2.latency_s / ours;
  s.gpu = gpu.latency_s / ours;
  s.fpga_base = fpga_base / ours;
  return s;
}

TEST(IntegrationTest, Fig7aSpeedupOrdering) {
  // The qualitative Fig 7(a) result: FPGA length-aware beats everything;
  // CPU is slowest, then edge GPU, then server GPU and FPGA baseline.
  const auto s = ComputeSpeedups(BertBase(), Squad());
  EXPECT_GT(s.cpu, s.tx2);
  EXPECT_GT(s.tx2, s.gpu);
  EXPECT_GT(s.cpu, 20.0);   // order of magnitude vs CPU
  EXPECT_GT(s.gpu, 1.0);    // we beat the GPU server
  EXPECT_GT(s.fpga_base, 1.0);
}

TEST(IntegrationTest, PaddingHeavyDatasetBenefitsMost) {
  // SQuAD (Max/Avg 4.6) must show a larger GPU speedup than MRPC (1.6):
  // the win comes from skipping padding.
  const auto squad = ComputeSpeedups(BertBase(), Squad());
  const auto mrpc = ComputeSpeedups(BertBase(), Mrpc());
  EXPECT_GT(squad.gpu, mrpc.gpu);
}

TEST(IntegrationTest, AttentionSpeedupExceedsEndToEnd) {
  // Fig 7(b) vs 7(a): the attention-only win is much larger than the
  // end-to-end win.
  const auto model = BertBase();
  Rng rng(5);
  LengthSampler sampler(Squad());
  const auto lens = sampler.SampleMany(rng, 16);

  const AcceleratorConfig cfg;
  const auto gpu = RunPlatform(QuadroRtx6000(), model, lens);

  const double end2end =
      gpu.latency_s / RunAccelerator(model, lens, cfg).makespan;
  const double attention =
      gpu.attention_latency_s / AttentionLatency(model, lens, cfg);
  EXPECT_GT(attention, 2.0 * end2end);
}

// ------------------------------------------------ Fig 6 sweep (small) ----

TEST(IntegrationTest, Fig6AccuracyShapeOnOneCombo) {
  // Smaller replica of the Fig 6 bench: BERT-base on RTE, k sweep.
  const auto spec = Rte();
  const auto wl = WorkloadForDataset(spec);
  Rng rng(3);
  LengthSampler sampler(spec);

  double prev_score = 0;
  for (std::size_t k : {10u, 30u, 50u}) {
    double mass = 0;
    const int reps = 4;
    for (int r = 0; r < reps; ++r) {
      const auto n = sampler.Sample(rng);
      const auto p = GenerateAttentionProblem(rng, n, wl);
      SparseAttentionConfig cfg;
      cfg.top_k = k;
      cfg.bits = 1;
      mass += EvaluateFidelity(p, cfg).retained_mass;
    }
    mass /= reps;
    const double score = PredictedScore(spec, mass);
    EXPECT_GE(score, prev_score - 0.5) << "k=" << k;  // non-decreasing in k
    prev_score = score;
    if (k == 30) {
      EXPECT_LT(spec.baseline_score - score, 2.5)
          << "Top-30 must be within ~2% of baseline";
    }
  }
}

// ----------------------------------------------------------- Table 2 -----

TEST(IntegrationTest, Table2EfficiencyShape) {
  // Our FPGA efficiency must exceed the E.T. GPU row by roughly 4x and sit
  // between the FPGA[37] and ASIC rows, as in Table 2.
  const auto model = BertBase();
  Rng rng(21);
  LengthSampler sampler(Squad());
  const auto lens = sampler.SampleMany(rng, 16);
  const double ours = RunAccelerator(model, lens, AcceleratorConfig{}).makespan;

  // Equivalent GOPS vs the dense padded workload (what Table 2 reports).
  const auto batch = MakeBatch(lens, BatchPolicy::kPadToMax);
  const auto dense_ops = EncoderOps(model.encoder, AttentionMode::kDense);
  const double layers = static_cast<double>(model.layers);
  double padded_flops = 0;
  for (auto n : batch.effective_lengths) {
    padded_flops += layers * TotalFlops(dense_ops, static_cast<double>(n));
  }
  const double gops = padded_flops / ours / 1e9;
  const double watts = FpgaPowerWatts(AlveoU280Slr0(), 1.0);
  const double eff = EnergyEfficiency(gops, watts);

  const auto cited = CitedTable2Rows();
  const double gpu_et_eff = cited[0].gop_per_j;   // 25 GOP/J
  const double spatten_eff = cited[3].gop_per_j;  // 382 GOP/J
  EXPECT_GT(eff, 2.0 * gpu_et_eff);   // clearly above the GPU row
  EXPECT_LT(eff, spatten_eff);        // below dedicated ASICs
}

}  // namespace
}  // namespace latte
