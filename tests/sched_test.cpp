// Tests for the operator graph, Eq. 1 priorities and Algorithm 1 stage
// allocation, priced through the stage pipeline.

#include <gtest/gtest.h>

#include "fpga/pipeline_sim.hpp"
#include "fpga/resources.hpp"
#include "fpga/timing.hpp"
#include "model/config.hpp"
#include "sched/op_graph.hpp"
#include "sched/stage_allocation.hpp"

namespace latte {
namespace {

OpSpec MakeOp(std::string name, double lin_flops, int hint = 1) {
  OpSpec s;
  s.name = std::move(name);
  s.flops.lin = lin_flops;
  s.stage_hint = hint;
  return s;
}

OpGraph BertSparseGraph(double top_k = 30) {
  const auto cfg = BertBase().encoder;
  return OpGraph::Chain(
      EncoderOps(cfg, AttentionMode::kSparseTopK,
                 static_cast<std::size_t>(top_k)));
}

// -------------------------------------------------------------- OpGraph --

TEST(OpGraphTest, ChainEdges) {
  const auto g = OpGraph::Chain({MakeOp("a", 1), MakeOp("b", 2),
                                 MakeOp("c", 3)});
  ASSERT_EQ(g.size(), 3u);
  EXPECT_EQ(g.node(0).succ, std::vector<std::size_t>{1});
  EXPECT_EQ(g.node(1).pred, std::vector<std::size_t>{0});
  EXPECT_TRUE(g.node(2).succ.empty());
}

TEST(OpGraphTest, TopoOrderOfChainIsIdentity) {
  const auto g = OpGraph::Chain({MakeOp("a", 1), MakeOp("b", 2),
                                 MakeOp("c", 3)});
  const auto topo = g.TopoOrder();
  EXPECT_EQ(topo, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(OpGraphTest, CycleDetected) {
  OpGraph g;
  const auto a = g.AddNode(MakeOp("a", 1));
  const auto b = g.AddNode(MakeOp("b", 1));
  g.AddEdge(a, b);
  g.AddEdge(b, a);
  EXPECT_THROW(g.TopoOrder(), std::runtime_error);
}

TEST(OpGraphTest, SelfEdgeRejected) {
  OpGraph g;
  const auto a = g.AddNode(MakeOp("a", 1));
  EXPECT_THROW(g.AddEdge(a, a), std::invalid_argument);
  EXPECT_THROW(g.AddEdge(a, 99), std::out_of_range);
}

TEST(OpGraphTest, PrioritiesAreSuffixSumsOnAChain) {
  // Eq. 1 on a chain: P(v) = W(v) + P(next).
  const auto g = OpGraph::Chain({MakeOp("a", 10), MakeOp("b", 20),
                                 MakeOp("c", 5)});
  const auto p = g.Priorities(1.0);
  EXPECT_DOUBLE_EQ(p[2], 5.0);
  EXPECT_DOUBLE_EQ(p[1], 25.0);
  EXPECT_DOUBLE_EQ(p[0], 35.0);
}

TEST(OpGraphTest, PriorityTakesMaxOverSuccessors) {
  OpGraph g;
  const auto a = g.AddNode(MakeOp("a", 1));
  const auto b = g.AddNode(MakeOp("b", 100));
  const auto c = g.AddNode(MakeOp("c", 2));
  g.AddEdge(a, b);
  g.AddEdge(a, c);
  const auto p = g.Priorities(1.0);
  EXPECT_DOUBLE_EQ(p[a], 1.0 + 100.0);  // max(P(b), P(c)) = 100
}

TEST(OpGraphTest, PrioritiesDecreaseAlongEncoderChain) {
  const auto g = BertSparseGraph();
  const auto p = g.Priorities(177);
  for (std::size_t v = 1; v < g.size(); ++v) {
    EXPECT_GT(p[v - 1], p[v]);
  }
}

// --------------------------------------------------------- Algorithm 1 ---

FpgaSpec WithDsp(double dsp) {
  FpgaSpec spec = AlveoU280Slr0();
  spec.dsp = dsp;
  return spec;
}

TEST(StageAllocationTest, ReturnsEveryOperatorWithItsStage) {
  const auto g = BertSparseGraph();
  const auto res = AllocateStages(g, AlveoU280Slr0(), 177);
  ASSERT_EQ(res.ops.size(), g.size());
  ASSERT_EQ(res.lanes.size(), g.size());
  std::vector<int> members(res.Stages(), 0);
  for (std::size_t v = 0; v < g.size(); ++v) {
    EXPECT_EQ(res.ops[v].name, g.node(v).spec.name);
    ASSERT_GE(res.ops[v].stage_hint, 1);
    ASSERT_LE(res.ops[v].stage_hint, static_cast<int>(res.Stages()));
    ++members[static_cast<std::size_t>(res.ops[v].stage_hint - 1)];
  }
  for (int m : members) EXPECT_GT(m, 0);  // no stage is empty
}

TEST(StageAllocationTest, StagesAreContiguousInDataflowOrder) {
  const auto g = BertSparseGraph();
  const auto res = AllocateStages(g, AlveoU280Slr0(), 177);
  // On a chain visited in priority (= dataflow) order, each stage must be a
  // contiguous vertex range: the hint steps up by at most one.
  EXPECT_EQ(res.ops.front().stage_hint, 1);
  for (std::size_t v = 1; v < res.ops.size(); ++v) {
    const int step = res.ops[v].stage_hint - res.ops[v - 1].stage_hint;
    EXPECT_TRUE(step == 0 || step == 1) << res.ops[v].name;
  }
}

TEST(StageAllocationTest, QkvAndAtSelShareStageOne) {
  // The Fig 2(a) boundary the algorithm must reproduce: the big QKV matmul
  // and the LUT-fabric At-Sel coexist in stage 1 (At-Sel costs no DSPs).
  const auto g = BertSparseGraph();
  const auto res = AllocateStages(g, AlveoU280Slr0(), 177);
  ASSERT_GE(res.Stages(), 2u);
  EXPECT_EQ(res.ops[0].stage_hint, 1);  // QKV
  EXPECT_EQ(res.ops[1].stage_hint, 1);  // At-Sel
}

TEST(StageAllocationTest, RespectsDspAndLutBudgets) {
  const auto g = BertSparseGraph();
  const auto spec = AlveoU280Slr0();
  const auto res = AllocateStages(g, spec, 177);
  EXPECT_LE(res.TotalDsp(), spec.dsp);
  EXPECT_LE(res.TotalLut(), spec.lut);
}

TEST(StageAllocationTest, TighterBudgetNeverMergesStages) {
  const auto g = BertSparseGraph();
  const auto a = AllocateStages(g, WithDsp(6000), 177);
  const auto b = AllocateStages(g, WithDsp(1200), 177);
  EXPECT_GE(b.Stages(), a.Stages());
}

TEST(StageAllocationTest, SingleOpGraph) {
  const auto g = OpGraph::Chain({MakeOp("only", 42, 3)});
  const auto res = AllocateStages(g, AlveoU280Slr0(), 10);
  ASSERT_EQ(res.Stages(), 1u);
  EXPECT_EQ(res.ops[0].stage_hint, 1);
  EXPECT_EQ(res.lanes[0], 1.0);
}

TEST(StageAllocationTest, EmptyGraph) {
  OpGraph g;
  const auto res = AllocateStages(g, AlveoU280Slr0(), 10);
  EXPECT_TRUE(res.ops.empty());
  EXPECT_EQ(res.Stages(), 0u);
}

TEST(StageAllocationTest, EqualWeightsPackIntoOneStage) {
  const auto g = OpGraph::Chain(
      {MakeOp("a", 100), MakeOp("b", 100), MakeOp("c", 100)});
  const auto res = AllocateStages(g, AlveoU280Slr0(), 1.0);
  EXPECT_EQ(res.Stages(), 1u);  // ceil ratios are 1, budget huge
}

TEST(StageAllocationTest, HugeWeightMismatchOpensNewStage) {
  const auto g = OpGraph::Chain({MakeOp("big", 1e9), MakeOp("small", 1.0)});
  const auto res = AllocateStages(g, WithDsp(100), 1.0);
  // Rebalancing would give "big" 1e9 lanes; must split instead.
  EXPECT_EQ(res.Stages(), 2u);
}

TEST(StageAllocationTest, LutLanesCostKLutsPerLane) {
  // Rebalancing against "small" gives the LUT-class "sel" ceil(100 / 1) =
  // 100 lanes: they fit a budget of exactly 100 lanes' LUTs, not one less.
  OpSpec sel = MakeOp("sel", 100);
  sel.lut_ops.lin = 1;
  const auto g = OpGraph::Chain({sel, MakeOp("small", 1)});
  FpgaSpec spec = AlveoU280Slr0();
  spec.lut = 100 * kLutsPerLane;
  EXPECT_EQ(AllocateStages(g, spec, 1.0).Stages(), 1u);
  spec.lut -= 1;
  EXPECT_EQ(AllocateStages(g, spec, 1.0).Stages(), 2u);
}

// Property sweep: Algorithm 1 invariants hold across budgets and lengths,
// and every result prices through the one stage pipeline.
class AllocationProperty
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(AllocationProperty, InvariantsHold) {
  const auto [budget, s_avg] = GetParam();
  const auto g = BertSparseGraph();
  const auto spec = WithDsp(budget);
  const auto res = AllocateStages(g, spec, s_avg);
  // 1. Budgets respected.
  EXPECT_LE(res.TotalDsp(), spec.dsp * (1 + 1e-9));
  EXPECT_LE(res.TotalLut(), spec.lut * (1 + 1e-9));
  // 2. Complete cover, every stage within the pipeline's bound.
  ASSERT_EQ(res.ops.size(), g.size());
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
