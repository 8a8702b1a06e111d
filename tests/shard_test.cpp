// Tests for tensor-parallel sharded execution: the column/row-slice GEMM
// kernels, ShardPlan construction and pricing, the InterconnectModel,
// the ShardExecutor gang (byte accounting, fixed-order reduction), the
// sharded encoder's bit-exactness contract against the unsharded layer,
// the sharded service model, the engine's kSharded backend and the
// long-to-sharded routing policy.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "latte/latte.hpp"

namespace latte {
namespace {

// ----------------------------------------------------- sliced GEMMs --

TEST(ShardGemmTest, ColumnSliceIsBitExactAgainstFullGemm) {
  Rng rng(31);
  // Odd shapes: no dimension is a multiple of the micro-kernel tile, so
  // the slices land mid-panel in the full GEMM's packing.
  const MatrixF a = rng.UniformMatrix(13, 37, -1, 1);
  const MatrixF b = rng.UniformMatrix(37, 41, -1, 1);
  GemmScratch scratch;
  MatrixF full(13, 41);
  MatMulInto(a, b, full, scratch);

  const std::vector<std::size_t> edges = {0, 1, 17, 40, 41};
  for (std::size_t i = 0; i + 1 < edges.size(); ++i) {
    const std::size_t col0 = edges[i], col1 = edges[i + 1];
    MatrixF slice(13, col1 - col0);
    MatMulColumnsInto(a, b, col0, col1, slice, scratch);
    for (std::size_t r = 0; r < full.rows(); ++r) {
      for (std::size_t c = col0; c < col1; ++c) {
        // Bitwise: the per-element K-tile reduction order is independent
        // of the packed column window.
        EXPECT_EQ(slice(r, c - col0), full(r, c))
            << "r=" << r << " c=" << c << " window=[" << col0 << "," << col1
            << ")";
      }
    }
  }
}

TEST(ShardGemmTest, ColumnSliceValidates) {
  const MatrixF a(3, 4), b(4, 5);
  MatrixF c(3, 2);
  GemmScratch scratch;
  MatrixF bad_a(3, 9);
  EXPECT_THROW(MatMulColumnsInto(bad_a, b, 0, 2, c, scratch),
               std::invalid_argument);
  EXPECT_THROW(MatMulColumnsInto(a, b, 4, 2, c, scratch),
               std::invalid_argument);
  EXPECT_THROW(MatMulColumnsInto(a, b, 2, 6, c, scratch),
               std::invalid_argument);
}

TEST(ShardGemmTest, RowSlicePartialsComposeToFullGemm) {
  Rng rng(32);
  const MatrixF a = rng.UniformMatrix(9, 30, -1, 1);
  const MatrixF b = rng.UniformMatrix(30, 21, -1, 1);
  GemmScratch scratch;
  MatrixF full(9, 21);
  MatMulInto(a, b, full, scratch);

  // Split K = 30 into uneven ranges, multiply each A column block against
  // its B row block and sum the partials in ascending order.
  const std::vector<std::size_t> edges = {0, 11, 30};
  MatrixF sum(9, 21);
  for (std::size_t i = 0; i + 1 < edges.size(); ++i) {
    const std::size_t k0 = edges[i], k1 = edges[i + 1];
    MatrixF a_block(9, k1 - k0);
    for (std::size_t r = 0; r < a.rows(); ++r) {
      for (std::size_t k = k0; k < k1; ++k) a_block(r, k - k0) = a(r, k);
    }
    MatrixF partial(9, 21);
    MatMulRowsInto(a_block, b, k0, k1, partial, scratch);
    for (std::size_t r = 0; r < sum.rows(); ++r) {
      for (std::size_t c = 0; c < sum.cols(); ++c) {
        sum(r, c) = i == 0 ? partial(r, c) : sum(r, c) + partial(r, c);
      }
    }
  }
  // The K split re-associates the reduction: rounding-level only.
  for (std::size_t r = 0; r < full.rows(); ++r) {
    for (std::size_t c = 0; c < full.cols(); ++c) {
      EXPECT_NEAR(sum(r, c), full(r, c), 1e-4f * (1 + std::abs(full(r, c))));
    }
  }
}

TEST(ShardGemmTest, RowSliceEmptyRangeIsExactZero) {
  const MatrixF a(5, 0);
  Rng rng(33);
  const MatrixF b = rng.UniformMatrix(12, 7, -1, 1);
  GemmScratch scratch;
  MatrixF c(5, 7);
  c(2, 3) = 99.f;  // must be overwritten, not accumulated into
  MatMulRowsInto(a, b, 4, 4, c, scratch);
  for (float v : c.flat()) EXPECT_EQ(v, 0.f);
}

// ------------------------------------------------------- ShardPlan --

TEST(ShardPlanTest, BalancedRangesCoverUnevenSplits) {
  const auto r = BalancedRanges(12, 5);  // 3, 3, 2, 2, 2
  ASSERT_EQ(r.size(), 5u);
  EXPECT_EQ(r[0].size(), 3u);
  EXPECT_EQ(r[1].size(), 3u);
  EXPECT_EQ(r[4].size(), 2u);
  EXPECT_EQ(r.front().begin, 0u);
  EXPECT_EQ(r.back().end, 12u);
  for (std::size_t i = 1; i < r.size(); ++i) {
    EXPECT_EQ(r[i].begin, r[i - 1].end);  // contiguous, no gaps
  }

  const auto tiny = BalancedRanges(2, 4);  // 1, 1, 0, 0
  EXPECT_EQ(tiny[1].end, 2u);
  EXPECT_EQ(tiny[2].size(), 0u);
  EXPECT_EQ(tiny[3].size(), 0u);
}

TEST(ShardPlanTest, MakeShardPlanValidatesAndCovers) {
  EncoderConfig enc;
  enc.hidden = 48;
  enc.heads = 6;
  ShardPlanConfig cfg;
  cfg.shards = 4;  // does not divide 6: shards own 2/2/1/1 heads
  const ShardPlan plan = MakeShardPlan(enc, cfg);
  EXPECT_EQ(plan.shards, 4u);
  EXPECT_EQ(plan.heads.back().end, 6u);
  EXPECT_EQ(plan.ffn_cols.back().end, enc.ffn());
  EXPECT_EQ(plan.hidden_cols.back().end, 48u);
  // Head columns follow the concatenated-heads layout.
  EXPECT_EQ(plan.HeadCols(0, enc).begin, 0u);
  EXPECT_EQ(plan.HeadCols(0, enc).end, 2 * enc.head_dim());

  cfg.shards = 0;
  EXPECT_THROW(MakeShardPlan(enc, cfg), std::invalid_argument);
  cfg.shards = 2;
  EncoderConfig bad = enc;
  bad.heads = 5;  // 5 does not divide 48
  EXPECT_THROW(MakeShardPlan(bad, cfg), std::invalid_argument);
}

TEST(ShardPlanTest, PartitionOpWeightsSharesAreConsistent) {
  EncoderConfig enc;
  enc.hidden = 64;
  enc.heads = 8;
  const OpGraph graph = OpGraph::Chain(EncoderOps(enc, AttentionMode::kDense));

  ShardPlanConfig cfg;
  cfg.shards = 1;
  const auto solo = PartitionOpWeights(graph, MakeShardPlan(enc, cfg), enc, 128);
  EXPECT_DOUBLE_EQ(solo.MaxShare(), 1.0);

  cfg.shards = 4;
  const auto w = PartitionOpWeights(graph, MakeShardPlan(enc, cfg), enc, 128);
  double shard_sum = 0;
  for (double f : w.shard_flops) shard_sum += f;
  EXPECT_NEAR(shard_sum + w.serial_flops, w.total_flops,
              1e-9 * w.total_flops);
  EXPECT_GT(w.MaxShare(), 0.25);  // serial remainder keeps it above 1/N
  EXPECT_LT(w.MaxShare(), 1.0);
  EXPECT_LT(w.MaxShare(), solo.MaxShare());
}

TEST(ShardPlanTest, CommVolumeMatchesFfn2Strategy) {
  EncoderConfig enc;
  enc.hidden = 64;
  enc.heads = 8;
  ShardPlanConfig cfg;
  cfg.shards = 4;
  const auto column = PlanCommVolume(MakeShardPlan(enc, cfg), enc, 32);
  EXPECT_GT(column.gather_ffn_bytes, 0u);
  EXPECT_EQ(column.reduce_ffn_bytes, 0u);

  cfg.row_parallel_ffn2 = true;
  const auto row = PlanCommVolume(MakeShardPlan(enc, cfg), enc, 32);
  EXPECT_EQ(row.gather_ffn_bytes, 0u);
  EXPECT_GT(row.reduce_ffn_bytes, 0u);
  // The cheaper wire shape: that is the point of row-parallel FFN2.
  EXPECT_LT(row.TotalBytes(), column.TotalBytes());

  // A single shard never communicates.
  cfg.shards = 1;
  EXPECT_EQ(PlanCommVolume(MakeShardPlan(enc, cfg), enc, 32).TotalBytes(), 0u);
}

// ------------------------------------------------ InterconnectModel --

TEST(InterconnectTest, TransferUnitsAddUp) {
  InterconnectConfig cfg;
  cfg.link_bytes_per_s = 1e9;
  cfg.hop_latency_s = 1e-3;
  const InterconnectModel icn(cfg);
  // 1 GB over one hop: 1 s of wire plus 1 ms of hop latency.
  EXPECT_DOUBLE_EQ(icn.TransferS(1'000'000'000, 1), 1.0 + 1e-3);
  EXPECT_DOUBLE_EQ(icn.TransferS(0, 2), 2e-3);

  // Collectives degenerate to zero on a single worker.
  EXPECT_DOUBLE_EQ(icn.AllGatherS(1, 1 << 20), 0.0);
  EXPECT_DOUBLE_EQ(icn.AllReduceS(1, 1 << 20), 0.0);
  EXPECT_DOUBLE_EQ(icn.BroadcastS(1, 1 << 20), 0.0);
  EXPECT_GT(icn.AllGatherS(4, 1 << 20), 0.0);
}

TEST(InterconnectTest, MeshShortensTheWrapAroundLink) {
  InterconnectConfig chain;
  const InterconnectModel c(chain);
  EXPECT_EQ(c.Hops(0, 3), 3u);
  EXPECT_EQ(c.RingStepHops(4), 3u);  // the 3 -> 0 wrap dominates

  InterconnectConfig mesh = chain;
  mesh.mesh_cols = 2;  // 2x2 grid: worker 3 is one Manhattan step from 2
  const InterconnectModel m(mesh);
  EXPECT_EQ(m.Hops(0, 3), 2u);
  EXPECT_LT(m.RingStepHops(4), c.RingStepHops(4));
}

TEST(InterconnectTest, DramSpillSurchargesLargeTransfers) {
  InterconnectConfig cfg;
  cfg.dram_spill_bytes = 1024;
  cfg.dram_bytes_per_s = 1e9;
  const InterconnectModel icn(cfg);
  const double small = icn.TransferS(1024, 1);
  const double large = icn.TransferS(1025, 1);
  // The spilled transfer pays DRAM bandwidth on top of the link time for
  // one extra byte: a step, not a slope change.
  EXPECT_GT(large - small, 1e-9);

  cfg.link_bytes_per_s = 0;
  EXPECT_THROW(InterconnectModel{cfg}, std::invalid_argument);
}

// --------------------------------------------------- ShardExecutor --

TEST(ShardExecutorTest, StagesRunEveryShardAndAccountBytes) {
  ShardExecutor exec(3);
  EXPECT_EQ(exec.shards(), 3u);
  EXPECT_THROW(ShardExecutor{0}, std::invalid_argument);

  MatrixF& gathered = exec.comm().Float(shardslots::kCtx, 2, 6);
  exec.RunStage([&gathered](std::size_t s, Workspace& ws) {
    MatrixF& local = ws.Float(0, 2, 2);  // private per-shard scratch
    local(0, 0) = static_cast<float>(s);
    for (std::size_t r = 0; r < 2; ++r) {
      for (std::size_t c = 0; c < 2; ++c) {
        gathered(r, s * 2 + c) = local(0, 0);  // disjoint column ranges
      }
    }
  });
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(gathered(1, s * 2 + 1), static_cast<float>(s));
  }

  // CapacityBytes covers the comm slot and every shard arena.
  const std::size_t bytes = exec.CapacityBytes();
  EXPECT_GE(bytes, (2 * 6 + 3 * 2 * 2) * sizeof(float));

  // Shrinking a lease keeps capacity sticky; regrowing to the original
  // shape allocates nothing new -- byte accounting is deterministic
  // across lease/shrink/regrow cycles.
  exec.comm().Float(shardslots::kCtx, 1, 3);
  EXPECT_EQ(exec.CapacityBytes(), bytes);
  exec.comm().Float(shardslots::kCtx, 2, 6);
  EXPECT_EQ(exec.CapacityBytes(), bytes);
}

TEST(ShardExecutorTest, ReducePartialsUsesFixedAscendingOrder) {
  ShardExecutor exec(3);
  for (std::size_t s = 0; s < 3; ++s) {
    MatrixF& p = exec.comm().Float(shardslots::kPartialBase + s, 2, 2);
    for (std::size_t r = 0; r < 2; ++r) {
      for (std::size_t c = 0; c < 2; ++c) {
        p(r, c) = 0.1f * static_cast<float>(s + 1) + static_cast<float>(r);
      }
    }
  }
  MatrixF out;
  exec.ReducePartialsInto(2, 2, out);

  // Expected: ((p0 + p1) + p2), serially, in that exact order.
  float expect = (0.1f + 1.f) + (0.2f + 1.f);
  expect += 0.3f + 1.f;
  EXPECT_EQ(out(1, 0), expect);
  // The partials themselves must survive the reduction untouched.
  EXPECT_EQ(exec.comm().Float(shardslots::kPartialBase, 2, 2)(0, 0), 0.1f);
}

// ------------------------------------------------- sharded encoder --

struct EncoderFixture {
  EncoderConfig cfg;
  EncoderWeights w;
  MatrixF x;

  explicit EncoderFixture(std::size_t n = 19, std::size_t hidden = 48,
                          std::size_t heads = 6) {
    cfg.hidden = hidden;
    cfg.heads = heads;
    Rng rng(77);
    w = MakeEncoderWeights(rng, cfg);
    x = MakeInputEmbedding(rng, n, hidden);
  }
};

TEST(ShardedEncoderTest, BitExactAgainstUnshardedDenseForEveryDegree) {
  const EncoderFixture f;
  Workspace ws;
  const MatrixF reference = EncoderForward(f.x, f.w, f.cfg, DenseAttention, ws);

  // Degrees that divide the head count, that do not, and that exceed it
  // (trailing shards own zero heads): all bit-exact.
  for (std::size_t degree : {1u, 2u, 4u, 6u, 8u}) {
    ShardPlanConfig plan_cfg;
    plan_cfg.shards = degree;
    const ShardPlan plan = MakeShardPlan(f.cfg, plan_cfg);
    ShardExecutor exec(degree);
    const MatrixF sharded = ShardedEncoderForward(
        f.x, f.w, f.cfg, plan, DenseAttention, exec);
    EXPECT_EQ(sharded, reference) << "degree=" << degree;
  }
}

TEST(ShardedEncoderTest, BitExactWithSparseAttention) {
  const EncoderFixture f;
  SparseAttentionConfig scfg;
  scfg.top_k = 8;
  Workspace ws;
  const MatrixF reference = EncoderForward(
      f.x, f.w, f.cfg, MakeSparseAttentionFn(scfg), ws);

  ShardPlanConfig plan_cfg;
  plan_cfg.shards = 3;
  ShardExecutor exec(3);
  const MatrixF sharded = ShardedEncoderForward(
      f.x, f.w, f.cfg, MakeShardPlan(f.cfg, plan_cfg),
      MakeSparseAttentionFn(scfg), exec);
  EXPECT_EQ(sharded, reference);
}

TEST(ShardedEncoderTest, RowParallelFfn2AgreesToRounding) {
  const EncoderFixture f;
  Workspace ws;
  const MatrixF reference = EncoderForward(f.x, f.w, f.cfg, DenseAttention, ws);

  ShardPlanConfig plan_cfg;
  plan_cfg.shards = 4;
  plan_cfg.row_parallel_ffn2 = true;
  ShardExecutor exec(4);
  const MatrixF sharded = ShardedEncoderForward(
      f.x, f.w, f.cfg, MakeShardPlan(f.cfg, plan_cfg), DenseAttention, exec);
  ASSERT_EQ(sharded.rows(), reference.rows());
  ASSERT_EQ(sharded.cols(), reference.cols());
  for (std::size_t r = 0; r < sharded.rows(); ++r) {
    for (std::size_t c = 0; c < sharded.cols(); ++c) {
      EXPECT_NEAR(sharded(r, c), reference(r, c),
                  1e-4f * (1 + std::abs(reference(r, c))));
    }
  }
}

TEST(ShardedEncoderTest, OutputIsInvariantToThreadCount) {
  const EncoderFixture f;
  ShardPlanConfig plan_cfg;
  plan_cfg.shards = 4;
  const ShardPlan plan = MakeShardPlan(f.cfg, plan_cfg);

  ShardExecutor serial(4, 1);   // four shards time-sliced on one worker
  ShardExecutor parallel(4, 4);
  const MatrixF a = ShardedEncoderForward(
      f.x, f.w, f.cfg, plan, DenseAttention, serial);
  const MatrixF b = ShardedEncoderForward(
      f.x, f.w, f.cfg, plan, DenseAttention, parallel);
  EXPECT_EQ(a, b);
}

TEST(ShardedEncoderTest, SteadyStateStopsAllocating) {
  const EncoderFixture f;
  ShardPlanConfig plan_cfg;
  plan_cfg.shards = 3;
  plan_cfg.row_parallel_ffn2 = true;  // exercises the partial slots too
  const ShardPlan plan = MakeShardPlan(f.cfg, plan_cfg);
  ShardExecutor exec(3);

  const MatrixF first = ShardedEncoderForward(
      f.x, f.w, f.cfg, plan, DenseAttention, exec);
  const std::size_t bytes = exec.CapacityBytes();
  EXPECT_GT(bytes, 0u);
  const MatrixF second = ShardedEncoderForward(
      f.x, f.w, f.cfg, plan, DenseAttention, exec);
  EXPECT_EQ(exec.CapacityBytes(), bytes);  // arenas fully reused
  EXPECT_EQ(first, second);
}

TEST(ShardedEncoderTest, ValidatesShapes) {
  const EncoderFixture f;
  ShardPlanConfig plan_cfg;
  plan_cfg.shards = 2;
  const ShardPlan plan = MakeShardPlan(f.cfg, plan_cfg);

  ShardExecutor wrong_gang(3);  // plan says 2 shards
  EXPECT_THROW(ShardedEncoderForward(f.x, f.w, f.cfg, plan, DenseAttention,
                                     wrong_gang),
               std::invalid_argument);

  ShardExecutor exec(2);
  const MatrixF narrow(19, f.cfg.hidden - 1);
  EXPECT_THROW(ShardedEncoderForward(narrow, f.w, f.cfg, plan, DenseAttention,
                                     exec),
               std::invalid_argument);
}

// -------------------------------------------- sharded service model --

TEST(ShardServiceTest, PricesComputeShareAndCollectives) {
  const ModelConfig model = ScaledDown(BertBase(), 2);
  const BatchServiceModel base = [](const std::vector<std::size_t>&) {
    return 1.0;
  };
  ShardServiceConfig cfg;
  cfg.degree = 4;
  const BatchServiceModel sharded = MakeShardedServiceModel(base, model, cfg);

  const std::vector<std::size_t> batch(4, 512);
  const double priced = sharded(batch);
  // Under the default (fast) interconnect the gang must be cheaper than
  // one worker but can never beat its own critical-path share.
  EXPECT_LT(priced, 1.0);
  EXPECT_GT(priced, 0.25);
  // Deterministic: equal inputs, equal bits.
  EXPECT_EQ(priced, sharded(batch));
  // An empty batch keeps the base price.
  EXPECT_EQ(sharded({}), base({}));
}

TEST(ShardServiceTest, MinShardedLenKeepsShortBatchesUnsharded) {
  const ModelConfig model = ScaledDown(BertBase(), 2);
  const BatchServiceModel base = [](const std::vector<std::size_t>& lens) {
    return 1e-3 * static_cast<double>(lens.size());
  };
  ShardServiceConfig cfg;
  cfg.degree = 2;
  cfg.min_sharded_len = 256;
  const BatchServiceModel sharded = MakeShardedServiceModel(base, model, cfg);
  EXPECT_EQ(sharded({100, 200}), base({100, 200}));  // all short: base price
  // The longest request qualifies, so the whole batch is gang-priced
  // (share + collectives), no longer the base price.
  EXPECT_NE(sharded({100, 4096}), base({100, 4096}));
}

TEST(ShardServiceTest, CommModelIsTheCollectivesTermExactly) {
  const ModelConfig model = ScaledDown(BertBase(), 2);
  // With a zero-cost base the gang price degenerates to the collectives
  // term alone, so the standalone comm model (what the engine prices the
  // shard_comm trace sub-span with) must reproduce it bit for bit.
  const BatchServiceModel zero = [](const std::vector<std::size_t>&) {
    return 0.0;
  };
  ShardServiceConfig cfg;
  cfg.degree = 4;
  const BatchServiceModel sharded = MakeShardedServiceModel(zero, model, cfg);
  const BatchServiceModel comm = MakeShardCommModel(model, cfg);

  const std::vector<std::size_t> batch = {128, 512, 37};
  EXPECT_GT(comm(batch), 0.0);
  EXPECT_EQ(comm(batch), sharded(batch));
  EXPECT_EQ(comm(batch), comm(batch));  // deterministic bits
  EXPECT_EQ(comm({}), 0.0);

  // Batches the gang would leave unsharded pay no collectives.
  cfg.min_sharded_len = 256;
  const BatchServiceModel gated = MakeShardCommModel(model, cfg);
  EXPECT_EQ(gated({100, 200}), 0.0);
  EXPECT_GT(gated({100, 4096}), 0.0);
}

TEST(ShardServiceTest, ValidatesConfig) {
  ShardServiceConfig cfg;
  cfg.degree = 1;
  EXPECT_TRUE(HasIssueFor(CheckShardServiceConfig(cfg), "degree"));
  cfg.degree = 2;
  cfg.interconnect.hop_latency_s = -1;
  EXPECT_TRUE(HasIssueFor(CheckShardServiceConfig(cfg),
                          "interconnect.hop_latency_s"));
}

// ------------------------------------- engine kSharded + routing --

TEST(ShardServiceTest, EngineShardedAccountingIsDeterministic) {
  const ModelConfig model_cfg = ScaledDown(BertBase(), 6);
  const ModelInstance model(model_cfg, 5);

  PoissonTraceConfig trace_cfg;
  trace_cfg.arrival_rate_rps = 200;
  trace_cfg.requests = 64;
  const auto trace = GeneratePoissonTrace(trace_cfg, Squad());

  ServingEngineConfig cfg;
  cfg.former.max_batch = 4;
  cfg.execute = false;
  cfg.backend = BackendMode::kSharded;
  cfg.shard.degree = 2;

  ServingEngine a(model, cfg);
  ServingEngine b(model, cfg);
  const auto ra = a.Replay(trace);
  const auto rb = b.Replay(trace);
  EXPECT_EQ(ra.report().requests, rb.report().requests);
  EXPECT_EQ(ra.report().batches, rb.report().batches);
  EXPECT_EQ(ra.report().p99_latency_s, rb.report().p99_latency_s);

  // The gang is strictly faster than one unsharded worker on the same
  // trace (default interconnect), and both runs price it identically.
  ServingEngineConfig solo = cfg;
  solo.backend = BackendMode::kReplicated;
  ServingEngine c(model, solo);
  EXPECT_LT(ra.report().p99_latency_s, c.Replay(trace).report().p99_latency_s);
}

TEST(ShardServiceTest, LongToShardedRoutesByLengthClass) {
  const ModelConfig model_cfg = ScaledDown(BertBase(), 6);
  const ModelInstance model(model_cfg, 9);

  ClusterConfig cfg;
  ReplicaConfig plain;
  plain.engine.execute = false;
  ReplicaConfig gang = plain;
  gang.engine.backend = BackendMode::kSharded;
  gang.engine.shard.degree = 2;
  cfg.replicas = {plain, gang};
  cfg.router.policy = RouterPolicy::kLongToSharded;
  cfg.router.long_len_threshold = 128;

  ServingCluster cluster(model, cfg);
  std::vector<TimedRequest> trace;
  for (std::size_t i = 0; i < 8; ++i) {
    // Alternate short (64) and long (256) requests, spaced far enough
    // apart that queue depth never overrides the class preference.
    trace.push_back({static_cast<double>(i), i % 2 == 0 ? 64u : 256u});
  }
  const auto result = cluster.Replay(trace);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(result.replica_of[i], trace[i].length >= 128 ? 1u : 0u)
        << "request " << i;
  }

  // The policy requires a threshold.
  RouterConfig bad;
  bad.policy = RouterPolicy::kLongToSharded;
  EXPECT_FALSE(CheckRouterConfig(bad, 2).empty());
}

}  // namespace
}  // namespace latte
