// Tests for the FPGA substrate: resources, stage timing and the
// coarse-grained pipeline simulator.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "fpga/accelerator.hpp"
#include "fpga/pipeline_sim.hpp"
#include "fpga/resources.hpp"
#include "fpga/timing.hpp"
#include "model/config.hpp"

namespace latte {
namespace {

std::vector<StageTimingModel> SparseStageModels(double s_avg = 177) {
  const auto ops =
      EncoderOps(BertBase().encoder, AttentionMode::kSparseTopK, 30);
  return BuildStageTimings(ops, AlveoU280Slr0(), s_avg);
}

// ------------------------------------------------------------ Resources --

TEST(ResourcesTest, U280PeakMatchesPaper) {
  const auto spec = AlveoU280Slr0();
  // 3000 DSPs * 2 ops * 200 MHz = 1.2 TOPS (Section 5.2).
  EXPECT_DOUBLE_EQ(spec.PeakOpsPerSecond(), 1.2e12);
  EXPECT_EQ(spec.hbm_channels, 32u);
}

// --------------------------------------------------------------- Timing --

TEST(TimingTest, ThreeStagesFromHints) {
  const auto models = SparseStageModels();
  EXPECT_EQ(models.size(), 3u);
}

TEST(TimingTest, StageSecondsMonotoneInLength) {
  const auto models = SparseStageModels();
  for (const auto& m : models) {
    EXPECT_LT(m.Seconds(64), m.Seconds(128));
    EXPECT_LT(m.Seconds(128), m.Seconds(821));
  }
}

TEST(TimingTest, DspShareSumsToBudget) {
  const auto models = SparseStageModels();
  double dsp = 0;
  for (const auto& m : models) dsp += m.dsp;
  EXPECT_NEAR(dsp, AlveoU280Slr0().dsp, 3.0);  // max(1, ...) rounding slack
}

TEST(TimingTest, ProportionalSplitBalancesStageLatency) {
  // At the design point s_avg the three stage latencies must be close
  // (equal up to the LUT/memory roofs), or the coarse pipeline would have
  // a structurally slow stage.
  const auto models = SparseStageModels(177);
  std::vector<double> t;
  for (const auto& m : models) t.push_back(m.Seconds(177));
  const double lo = *std::min_element(t.begin(), t.end());
  const double hi = *std::max_element(t.begin(), t.end());
  EXPECT_LT(hi / lo, 1.6);
}

TEST(TimingTest, DenseAttentionStageIsComputeBoundAtLongLength) {
  const auto ops = EncoderOps(BertBase().encoder, AttentionMode::kDense);
  const auto models = BuildStageTimings(ops, AlveoU280Slr0(), 821);
  // Stage 2 (dense At-Comp) at n=821 is DSP bound: its time is the DSP
  // roof exactly.
  const StageTimingModel& m = models[1];
  EXPECT_EQ(m.Seconds(821), m.flops.Eval(821) / (2.0 * m.dsp * m.freq_hz));
  EXPECT_STREQ(m.BindingRoof(821), "DSP");
}

TEST(TimingTest, RejectsNonPositiveSavg) {
  const auto ops = EncoderOps(BertBase().encoder, AttentionMode::kDense);
  EXPECT_THROW(BuildStageTimings(ops, AlveoU280Slr0(), 0.0),
               std::invalid_argument);
}

TEST(TimingTest, RejectsStageHintOutsideOneToMaxStages) {
  const auto ops =
      EncoderOps(BertBase().encoder, AttentionMode::kSparseTopK, 30);
  for (const int hint : {0, static_cast<int>(kMaxStages) + 1}) {
    SCOPED_TRACE(hint);
    auto bad = ops;
    bad.back().stage_hint = hint;
    EXPECT_THROW(BuildStageTimings(bad, AlveoU280Slr0(), 177),
                 std::out_of_range);
  }
  // The last stage a hint may name: LayerNorm2 alone in it, a fourth stage.
  auto last = ops;
  last.back().stage_hint = static_cast<int>(kMaxStages);
  EXPECT_EQ(BuildStageTimings(last, AlveoU280Slr0(), 177).size(), 4u);
}

TEST(TimingTest, AttentionOnlyOpsYieldTheStagesTheyName) {
  // Sparse attention operators name stages 1 (At-Sel) and 2 (score and
  // context): two stages, in stage order, each summing its members.
  const auto ops =
      EncoderOps(BertBase().encoder, AttentionMode::kSparseTopK, 30);
  std::vector<OpSpec> attn;
  for (const auto& op : ops) {
    if (op.in_attention) attn.push_back(op);
  }
  ASSERT_EQ(attn.size(), 3u);
  const auto models = BuildStageTimings(attn, AlveoU280Slr0(), 177);
  ASSERT_EQ(models.size(), 2u);
  EXPECT_EQ(models[0].flops.lin, attn[0].flops.lin);
  EXPECT_EQ(models[0].lut_ops.quad, attn[0].lut_ops.quad);
  EXPECT_EQ(models[1].flops.lin, attn[1].flops.lin + attn[2].flops.lin);

  // A list naming stages 3 and 1, in that order, yields stage 1 first.
  std::vector<OpSpec> late_first = {attn[0], attn[0]};
  late_first[0].stage_hint = 3;
  late_first[0].flops = {0, 5, 0};
  const auto ordered = BuildStageTimings(late_first, AlveoU280Slr0(), 177);
  ASSERT_EQ(ordered.size(), 2u);
  EXPECT_EQ(ordered[0].flops.lin, attn[0].flops.lin);
  EXPECT_EQ(ordered[1].flops.lin, 5.0);
}

// --------------------------------------------------------- PipelineSim ---

PipelineSimConfig OneLayer() {
  PipelineSimConfig cfg;
  cfg.layers = 1;
  return cfg;
}

TEST(PipelineSimTest, SingleSequenceIsSerialAcrossStages) {
  const auto models = SparseStageModels();
  const auto res = SimulatePipeline({128}, models, OneLayer());
  ASSERT_EQ(res.jobs.size(), 3u);
  EXPECT_DOUBLE_EQ(res.jobs[0].start, 0.0);
  for (std::size_t s = 1; s < 3; ++s) {
    EXPECT_DOUBLE_EQ(res.jobs[s].start, res.jobs[s - 1].end);
  }
  EXPECT_DOUBLE_EQ(res.makespan, res.jobs[2].end);
  EXPECT_NEAR(res.Saved(), 0.0, 1e-15);  // nothing to overlap
}

TEST(PipelineSimTest, DataflowDependenciesRespected) {
  const auto models = SparseStageModels();
  PipelineSimConfig cfg;
  cfg.layers = 2;
  const auto res = SimulatePipeline({140, 100, 82, 78, 72}, models, cfg);
  // Index jobs for dependency checking.
  auto find = [&](std::size_t seq, std::size_t layer, std::size_t stage) {
    for (const auto& j : res.jobs) {
      if (j.seq == seq && j.layer == layer && j.stage == stage) return j;
    }
    ADD_FAILURE() << "job missing";
    return TimedJob{};
  };
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t l = 0; l < 2; ++l) {
      for (std::size_t s = 1; s < 3; ++s) {
        EXPECT_GE(find(i, l, s).start, find(i, l, s - 1).end - 1e-12);
      }
      if (l > 0) {
        EXPECT_GE(find(i, l, 0).start, find(i, l - 1, 2).end - 1e-12);
      }
    }
  }
}

TEST(PipelineSimTest, StageServesJobsInOrderWithoutOverlap) {
  const auto models = SparseStageModels();
  PipelineSimConfig cfg;
  cfg.layers = 3;
  const auto res = SimulatePipeline({140, 100, 82}, models, cfg);
  for (std::size_t s = 0; s < 3; ++s) {
    double prev_end = 0;
    for (const auto& j : res.jobs) {
      if (j.stage != s) continue;
      EXPECT_GE(j.start, prev_end - 1e-12);
      prev_end = j.end;
    }
  }
}

TEST(PipelineSimTest, PipeliningSavesLatency) {
  const auto models = SparseStageModels();
  PipelineSimConfig cfg;
  cfg.layers = 4;
  const auto res =
      SimulatePipeline({140, 100, 82, 78, 72}, models, cfg);
  EXPECT_GT(res.Saved(), 0.0);
  EXPECT_LT(res.makespan, res.SerialTime());
}

TEST(PipelineSimTest, SortedBatchNearlyBubbleFree) {
  // The paper's claim: sorted decreasing-length input + O(n) stages =>
  // ~100% stage utilization.  With 16 sequences and 12 layers the middle
  // stages must be > 95% utilized.
  const auto models = SparseStageModels();
  PipelineSimConfig cfg;
  cfg.layers = 12;
  std::vector<std::size_t> lens = {300, 280, 260, 240, 220, 200, 190, 180,
                                   170, 160, 150, 140, 130, 120, 110, 100};
  const auto res = SimulatePipeline(lens, models, cfg);
  const auto util = res.StageUtilization();
  ASSERT_EQ(util.size(), 3u);
  for (double u : util) EXPECT_GT(u, 0.95);
}

TEST(PipelineSimTest, SortedBeatsUnsortedOrRandom) {
  const auto models = SparseStageModels();
  PipelineSimConfig cfg;
  cfg.layers = 6;
  std::vector<std::size_t> sorted = {500, 400, 300, 200, 150, 120, 90, 60};
  std::vector<std::size_t> shuffled = {60, 500, 150, 300, 90, 400, 120, 200};
  const auto a = SimulatePipeline(sorted, models, cfg);
  const auto b = SimulatePipeline(shuffled, models, cfg);
  EXPECT_LE(a.makespan, b.makespan * (1 + 1e-12));
}

TEST(PipelineSimTest, DoubleBufferNoWorseThanSingle) {
  const auto models = SparseStageModels();
  PipelineSimConfig with;
  with.layers = 4;
  with.double_buffer = true;
  PipelineSimConfig without = with;
  without.double_buffer = false;
  std::vector<std::size_t> lens = {300, 250, 200, 150, 100};
  const auto a = SimulatePipeline(lens, models, with);
  const auto b = SimulatePipeline(lens, models, without);
  EXPECT_LE(a.makespan, b.makespan * (1 + 1e-12));
}

TEST(PipelineSimTest, EmptyBatchAndBadConfig) {
  const auto models = SparseStageModels();
  const auto res = SimulatePipeline({}, models, OneLayer());
  EXPECT_EQ(res.makespan, 0.0);
  PipelineSimConfig zero;
  zero.layers = 0;
  EXPECT_THROW(SimulatePipeline({10}, models, zero), std::invalid_argument);
  EXPECT_THROW(SimulatePipeline({10}, {}, OneLayer()), std::invalid_argument);
}

TEST(PipelineSimTest, RejectsNonFiniteOrNegativeStageTime) {
  // A stage with no DSPs and no work divides 0 by 0 on the DSP roof.
  StageTimingModel nan_stage;
  nan_stage.dsp = 0;
  // No HBM share but real traffic: an infinite memory roof.
  StageTimingModel inf_stage;
  inf_stage.offchip_bytes = {0, 1, 0};
  inf_stage.hbm_bytes_per_s = 0;
  // Negative work on every roof.
  StageTimingModel neg_stage;
  neg_stage.flops = {0, 0, -1};
  neg_stage.lut_ops = {0, 0, -1};
  neg_stage.offchip_bytes = {0, 0, -1};
  for (const auto& bad : {nan_stage, inf_stage, neg_stage}) {
    auto models = SparseStageModels();
    models[1] = bad;
    try {
      SimulatePipeline({140, 100}, models, OneLayer());
      ADD_FAILURE() << "bad stage time accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("stage 1"), std::string::npos)
          << e.what();
    }
  }
}

TEST(PipelineSimTest, GanttRendersAllStages) {
  const auto models = SparseStageModels();
  PipelineSimConfig cfg;
  cfg.layers = 2;
  const auto res = SimulatePipeline({140, 100, 82}, models, cfg);
  const std::string g = RenderGantt(res, 3, 60);
  EXPECT_NE(g.find("MM|At-Sel"), std::string::npos);
  EXPECT_NE(g.find("At-Comp"), std::string::npos);
  EXPECT_NE(g.find("FdFwd"), std::string::npos);
  EXPECT_EQ(std::count(g.begin(), g.end(), '\n'), 3);
}

// --------------------------------------------------------- Accelerator ---

TEST(AcceleratorTest, LengthAwareBeatsBaseline) {
  const auto model = BertBase();
  std::vector<std::size_t> lens = {600, 450, 300, 220, 180, 150, 120, 100,
                                   95,  90,  85,  80,  75,  70,  65,  60};
  AcceleratorConfig aware;
  aware.mode = FpgaMode::kLengthAware;
  AcceleratorConfig base;
  base.mode = FpgaMode::kBaseline;
  EXPECT_LT(RunAccelerator(model, lens, aware).makespan,
            RunAccelerator(model, lens, base).makespan);
}

TEST(AcceleratorTest, AttentionLatencySmallerThanTotal) {
  const auto model = BertBase();
  std::vector<std::size_t> lens = {200, 180, 160, 140};
  const AcceleratorConfig cfg;
  const double attention = AttentionLatency(model, lens, cfg);
  EXPECT_GT(attention, 0.0);
  EXPECT_LT(attention, RunAccelerator(model, lens, cfg).makespan);
}

TEST(AcceleratorTest, EmptyBatchThrows) {
  EXPECT_THROW(RunAccelerator(BertBase(), {}, AcceleratorConfig{}),
               std::invalid_argument);
  EXPECT_THROW(AttentionLatency(BertBase(), {}, AcceleratorConfig{}),
               std::invalid_argument);
}

TEST(AcceleratorTest, UnsortedLengthAwareRunsTheGivenOrderUnpadded) {
  // sort_batch = false used to pad the batch as the baseline does, so
  // {50, 300, 60} priced exactly like {300, 300, 300}.
  const auto model = BertBase();
  AcceleratorConfig fifo;
  fifo.sort_batch = false;
  const std::vector<std::size_t> lens = {50, 300, 60};
  const auto res = RunAccelerator(model, lens, fifo);

  // Layer 0's stage 0 runs the sequences in the given order, each for its
  // own length on stages sized at the batch mean.
  const auto stages = BuildStageTimings(
      EncoderOps(model.encoder, AttentionMode::kSparseTopK, fifo.top_k),
      fifo.spec, (50.0 + 300.0 + 60.0) / 3.0);
  std::vector<const TimedJob*> first;
  for (const auto& j : res.jobs) {
    if (j.layer == 0 && j.stage == 0) first.push_back(&j);
  }
  ASSERT_EQ(first.size(), lens.size());
  for (std::size_t i = 0; i < lens.size(); ++i) {
    EXPECT_EQ(first[i]->seq, i);
    EXPECT_DOUBLE_EQ(first[i]->end - first[i]->start,
                     stages[0].Seconds(static_cast<double>(lens[i])))
        << "sequence " << i;
  }
  EXPECT_LT(res.makespan,
            RunAccelerator(model, {300, 300, 300}, fifo).makespan);
}

TEST(AcceleratorTest, SparseStagesTieSoDoubleBufferedOrderDoesNotMatter) {
  // SizeStages splits DSPs by FLOPs at s_avg, and every sparse Fig 2(a)
  // stage's FLOPs are linear in n with no constant: wherever the DSP roof
  // binds, the three stages take the same time (to a few ULPs), and a
  // double-buffered pipeline whose stages take equal times does not depend
  // on the order it is fed.
  const auto model = BertBase();
  const std::vector<std::size_t> lens = {60,  500, 150, 300,
                                         90, 400, 120, 200};
  const double s_avg = 1820.0 / 8.0;
  const auto stages = BuildStageTimings(
      EncoderOps(model.encoder, AttentionMode::kSparseTopK, 30),
      AlveoU280Slr0(), s_avg);
  ASSERT_EQ(stages.size(), 3u);
  for (const double n : {50.0, 177.0, 300.0, 512.0}) {
    SCOPED_TRACE(n);
    for (const auto& m : stages) EXPECT_STREQ(m.BindingRoof(n), "DSP");
    EXPECT_DOUBLE_EQ(stages[0].Seconds(n), stages[1].Seconds(n));
    EXPECT_DOUBLE_EQ(stages[1].Seconds(n), stages[2].Seconds(n));
  }
  // At n = 1 the HBM roof binds and separates them.
  for (const auto& m : stages) EXPECT_STREQ(m.BindingRoof(1), "HBM");
  EXPECT_GT(stages[0].Seconds(1), stages[1].Seconds(1));

  AcceleratorConfig given;
  given.sort_batch = false;
  const double t_given = RunAccelerator(model, lens, given).makespan;
  EXPECT_EQ(t_given,
            RunAccelerator(model, lens, AcceleratorConfig{}).makespan);
  EXPECT_NEAR(t_given, 0.272096118, 1e-9);

  // Single-buffered, the given order is no longer free.
  PipelineSimConfig single;
  single.double_buffer = false;
  auto sorted = lens;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  const double t_single = SimulatePipeline(lens, stages, single).makespan;
  EXPECT_NEAR(t_single, 0.661, 5e-4);
  EXPECT_GT(t_single, SimulatePipeline(sorted, stages, single).makespan);
}

// Property sweep: across models and batch shapes the length-aware design
// never loses to the padded dense baseline.
class AcceleratorProperty
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(AcceleratorProperty, AwareNeverSlower) {
  const auto [model_idx, spread] = GetParam();
  const auto model = ModelZoo()[static_cast<std::size_t>(model_idx)];
  std::vector<std::size_t> lens;
  for (std::size_t i = 0; i < 8; ++i) {
    lens.push_back(64 + i * spread);
  }
  AcceleratorConfig aware;
  AcceleratorConfig base;
  base.mode = FpgaMode::kBaseline;
  EXPECT_LE(RunAccelerator(model, lens, aware).makespan,
            RunAccelerator(model, lens, base).makespan * (1 + 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndSpreads, AcceleratorProperty,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values<std::size_t>(0, 10, 60)));

}  // namespace
}  // namespace latte
