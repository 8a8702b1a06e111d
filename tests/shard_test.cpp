// Tests for tensor-parallel pricing: the column-slice GEMM kernel,
// ShardPlan construction and pricing, the InterconnectModel, the sharded
// service model, the engine's kSharded backend and the long-to-sharded
// routing policy.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "latte/latte.hpp"

namespace latte {
namespace {

// ------------------------------------------------------ sliced GEMM --

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
  EXPECT_EQ(plan.heads.front(), (ShardRange{0, 2}));

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
  const auto ops = EncoderOps(enc, AttentionMode::kDense);

  ShardPlanConfig cfg;
  cfg.shards = 1;
  const auto solo = PartitionOpWeights(ops, MakeShardPlan(enc, cfg), enc, 128);
  EXPECT_DOUBLE_EQ(solo.MaxShare(), 1.0);

  cfg.shards = 4;
  const auto w = PartitionOpWeights(ops, MakeShardPlan(enc, cfg), enc, 128);
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
