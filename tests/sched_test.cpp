// Tests for the Eq. 1 priorities and Algorithm 1 stage allocation on the
// encoder's operator list, priced through the stage pipeline.

#include <gtest/gtest.h>

#include "fpga/pipeline_sim.hpp"
#include "fpga/resources.hpp"
#include "fpga/timing.hpp"
#include "model/config.hpp"
#include "sched/stage_allocation.hpp"

namespace latte {
namespace {

OpSpec MakeOp(double lin_flops, int hint = 1) {
  OpSpec s;
  s.flops.lin = lin_flops;
  s.stage_hint = hint;
  return s;
}

std::vector<OpSpec> BertSparseOps() {
  return EncoderOps(BertBase().encoder, AttentionMode::kSparseTopK, 30);
}

// ------------------------------------------------------------- Eq. 1 ----

TEST(PrioritiesTest, PrioritiesAreSuffixSumsOnAChain) {
  // Eq. 1 on a chain: P(v) = W(v) + P(next).
  const auto p = Priorities({MakeOp(10), MakeOp(20), MakeOp(5)}, 1.0);
  EXPECT_DOUBLE_EQ(p[2], 5.0);
  EXPECT_DOUBLE_EQ(p[1], 25.0);
  EXPECT_DOUBLE_EQ(p[0], 35.0);
}

TEST(PrioritiesTest, StrictlyDecreaseAlongEveryEncoderList) {
  // The premise that lets Algorithm 1 visit the list in order: decreasing
  // Eq. 1 priority is dataflow order, with no ties to break.
  for (const auto& model : {BertBase(), BertLarge(), DistilBert()}) {
    for (const bool dense : {true, false}) {
      const auto mode =
          dense ? AttentionMode::kDense : AttentionMode::kSparseTopK;
      for (const std::size_t top_k : {16, 30, 64, 192}) {
        const auto ops = EncoderOps(model.encoder, mode, top_k);
        for (const double s_avg : {1.0, 53.0, 177.0, 821.0, 4096.0}) {
          const auto p = Priorities(ops, s_avg);
          ASSERT_EQ(p.size(), ops.size());
          for (std::size_t v = 1; v < ops.size(); ++v) {
            EXPECT_GT(p[v - 1], p[v])
                << model.name << (dense ? " dense" : " sparse")
                << " top_k=" << top_k << " s_avg=" << s_avg << " at "
                << OpKindName(ops[v].kind);
          }
        }
      }
    }
  }
}

// --------------------------------------------------------- Algorithm 1 ---

FpgaSpec WithDsp(double dsp) {
  FpgaSpec spec = AlveoU280Slr0();
  spec.dsp = dsp;
  return spec;
}

TEST(StageAllocationTest, ReturnsEveryOperatorWithItsStage) {
  const auto ops = BertSparseOps();
  const auto res = AllocateStages(ops, AlveoU280Slr0(), 177);
  ASSERT_EQ(res.ops.size(), ops.size());
  ASSERT_EQ(res.lanes.size(), ops.size());
  std::vector<int> members(res.Stages(), 0);
  for (std::size_t v = 0; v < ops.size(); ++v) {
    EXPECT_EQ(res.ops[v].kind, ops[v].kind);
    ASSERT_GE(res.ops[v].stage_hint, 1);
    ASSERT_LE(res.ops[v].stage_hint, static_cast<int>(res.Stages()));
    ++members[static_cast<std::size_t>(res.ops[v].stage_hint - 1)];
  }
  for (int m : members) EXPECT_GT(m, 0);  // no stage is empty
}

TEST(StageAllocationTest, StagesAreContiguousInDataflowOrder) {
  const auto res = AllocateStages(BertSparseOps(), AlveoU280Slr0(), 177);
  // On a chain visited in priority (= dataflow) order, each stage must be a
  // contiguous operator range: the hint steps up by at most one.
  EXPECT_EQ(res.ops.front().stage_hint, 1);
  for (std::size_t v = 1; v < res.ops.size(); ++v) {
    const int step = res.ops[v].stage_hint - res.ops[v - 1].stage_hint;
    EXPECT_TRUE(step == 0 || step == 1) << OpKindName(res.ops[v].kind);
  }
}

TEST(StageAllocationTest, QkvAndAtSelShareStageOne) {
  // The Fig 2(a) boundary the algorithm must reproduce: the big QKV matmul
  // and the LUT-fabric At-Sel coexist in stage 1 (At-Sel costs no DSPs).
  const auto res = AllocateStages(BertSparseOps(), AlveoU280Slr0(), 177);
  ASSERT_GE(res.Stages(), 2u);
  EXPECT_EQ(res.ops[0].stage_hint, 1);  // QKV
  EXPECT_EQ(res.ops[1].stage_hint, 1);  // At-Sel
}

TEST(StageAllocationTest, RespectsDspAndLutBudgets) {
  const auto spec = AlveoU280Slr0();
  const auto res = AllocateStages(BertSparseOps(), spec, 177);
  EXPECT_LE(res.TotalDsp(), spec.dsp);
  EXPECT_LE(res.TotalLut(), spec.lut);
}

TEST(StageAllocationTest, TighterBudgetNeverMergesStages) {
  const auto ops = BertSparseOps();
  const auto a = AllocateStages(ops, WithDsp(6000), 177);
  const auto b = AllocateStages(ops, WithDsp(1200), 177);
  EXPECT_GE(b.Stages(), a.Stages());
}

TEST(StageAllocationTest, SingleOp) {
  const auto res = AllocateStages({MakeOp(42, 3)}, AlveoU280Slr0(), 10);
  ASSERT_EQ(res.Stages(), 1u);
  EXPECT_EQ(res.ops[0].stage_hint, 1);
  EXPECT_EQ(res.lanes[0], 1.0);
}

TEST(StageAllocationTest, EmptyList) {
  const auto res = AllocateStages({}, AlveoU280Slr0(), 10);
  EXPECT_TRUE(res.ops.empty());
  EXPECT_EQ(res.Stages(), 0u);
}

TEST(StageAllocationTest, EqualWeightsPackIntoOneStage) {
  const auto res = AllocateStages({MakeOp(100), MakeOp(100), MakeOp(100)},
                                  AlveoU280Slr0(), 1.0);
  EXPECT_EQ(res.Stages(), 1u);  // ceil ratios are 1, budget huge
}

TEST(StageAllocationTest, HugeWeightMismatchOpensNewStage) {
  const auto res =
      AllocateStages({MakeOp(1e9), MakeOp(1.0)}, WithDsp(100), 1.0);
  // Rebalancing would give the big operator 1e9 lanes; must split instead.
  EXPECT_EQ(res.Stages(), 2u);
}

TEST(StageAllocationTest, LutLanesCostKLutsPerLane) {
  // Rebalancing against the small operator gives the LUT-class `sel`
  // ceil(100 / 1) = 100 lanes: they fit a budget of exactly 100 lanes'
  // LUTs, not one less.
  OpSpec sel = MakeOp(100);
  sel.lut_ops.lin = 1;
  const std::vector<OpSpec> ops = {sel, MakeOp(1)};
  FpgaSpec spec = AlveoU280Slr0();
  spec.lut = 100 * kLutsPerLane;
  EXPECT_EQ(AllocateStages(ops, spec, 1.0).Stages(), 1u);
  spec.lut -= 1;
  EXPECT_EQ(AllocateStages(ops, spec, 1.0).Stages(), 2u);
}

// Property sweep: Algorithm 1 invariants hold across budgets and lengths,
// and every result prices through the one stage pipeline.
class AllocationProperty
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(AllocationProperty, InvariantsHold) {
  const auto [budget, s_avg] = GetParam();
  const auto ops = BertSparseOps();
  const auto spec = WithDsp(budget);
  const auto res = AllocateStages(ops, spec, s_avg);
  // 1. Budgets respected.
  EXPECT_LE(res.TotalDsp(), spec.dsp * (1 + 1e-9));
  EXPECT_LE(res.TotalLut(), spec.lut * (1 + 1e-9));
  // 2. Complete cover, every stage within the pipeline's bound.
  ASSERT_EQ(res.ops.size(), ops.size());
  ASSERT_GE(res.Stages(), 1u);
  ASSERT_LE(res.Stages(), kMaxStages);
  // 3. Parallelism at least 1 everywhere.
  for (double lanes : res.lanes) EXPECT_GE(lanes, 1.0);
  // 4. The partition prices like any other: one stage per Algorithm 1
  //    stage, and the makespan-only recurrence agrees with the full one.
  const auto stages = BuildStageTimings(res.ops, spec, s_avg);
  ASSERT_EQ(stages.size(), res.Stages());
  const std::vector<std::size_t> batch = {512, 300, 177, 90, 53};
  PipelineSimConfig cfg;
  const auto schedule = SimulatePipeline(batch, stages, cfg);
  EXPECT_GT(schedule.makespan, 0.0);
  EXPECT_EQ(PipelineMakespan(batch, stages, cfg), schedule.makespan);
}

INSTANTIATE_TEST_SUITE_P(
    BudgetsAndLengths, AllocationProperty,
    ::testing::Combine(::testing::Values(500.0, 1500.0, 3000.0, 9000.0),
                       ::testing::Values(53.0, 177.0, 821.0)));

}  // namespace
}  // namespace latte
