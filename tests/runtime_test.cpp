// Tests for the batched execution runtime: ThreadPool task draining,
// Workspace buffer reuse, BatchRunner bit-exactness against the
// sequential path, token sharding and the serving-config validation.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

#include "latte/latte.hpp"

namespace latte {
namespace {

// ---------------------------------------------------------- ThreadPool --

TEST(ThreadPoolTest, DrainsEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> hits{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&hits] { hits.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(hits.load(), 100);
  EXPECT_EQ(pool.completed(), 100u);
}

TEST(ThreadPoolTest, WaitIsReusableAcrossRounds) {
  ThreadPool pool(2);
  std::atomic<int> hits{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) pool.Submit([&hits] { hits.fetch_add(1); });
    pool.Wait();
    EXPECT_EQ(hits.load(), (round + 1) * 10);
  }
}

TEST(ThreadPoolTest, DefaultSizeIsAtLeastOne) {
  ThreadPool pool;  // 0 -> hardware_concurrency, clamped to >= 1
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPoolTest, RethrowsFirstTaskException) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // The error is consumed: the pool keeps working afterwards.
  std::atomic<int> hits{0};
  pool.Submit([&hits] { hits.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(hits.load(), 1);
}

TEST(ThreadPoolTest, CountsEveryTaskErrorNotJustTheFirst) {
  ThreadPool pool(2);
  std::atomic<int> hits{0};
  for (int i = 0; i < 6; ++i) {
    if (i % 2 == 0) {
      pool.Submit([] { throw std::runtime_error("task failed"); });
    } else {
      pool.Submit([&hits] { hits.fetch_add(1); });
    }
  }
  // Wait rethrows one error, but every failing task was captured -- none
  // were silently swallowed -- and the healthy tasks all ran.
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  EXPECT_EQ(pool.task_errors(), 3u);
  EXPECT_EQ(hits.load(), 3);

  // The batch's errors are consumed by the rethrow; the cumulative
  // counter keeps the history and the pool stays usable.
  pool.Submit([&hits] { hits.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(hits.load(), 4);
  EXPECT_EQ(pool.task_errors(), 3u);
  pool.Submit([] { throw std::logic_error("later batch"); });
  EXPECT_THROW(pool.Wait(), std::logic_error);
  EXPECT_EQ(pool.task_errors(), 4u);
}

// ----------------------------------------------------------- Workspace --

TEST(WorkspaceTest, AttentionScratchIsReusedAcrossCalls) {
  Rng rng(11);
  AttentionWorkloadConfig wl;
  wl.head_dim = 32;
  const auto p = GenerateAttentionProblem(rng, 64, wl);
  SparseAttentionConfig cfg;
  cfg.top_k = 16;

  Workspace ws;
  const MatrixF first = SparseAttention(p.q, p.k, p.v, cfg, nullptr,
                                        ws.attention());
  const std::size_t bytes_after_first = ws.CapacityBytes();
  const std::uint32_t* cand_ptr = ws.attention().select.candidates.data();

  // Same shapes again: the arena must serve the same buffers, not grow.
  const MatrixF second = SparseAttention(p.q, p.k, p.v, cfg, nullptr,
                                         ws.attention());
  EXPECT_EQ(ws.CapacityBytes(), bytes_after_first);
  EXPECT_EQ(ws.attention().select.candidates.data(), cand_ptr);
  EXPECT_GE(ws.leases(), 4u);
  EXPECT_EQ(first, second);  // and the math is deterministic

  ws.Reset();
  EXPECT_EQ(ws.CapacityBytes(), 0u);
  EXPECT_EQ(ws.leases(), 0u);
}

TEST(WorkspaceTest, CapacityBytesCountsTheSelectBuffers) {
  Rng rng(21);
  AttentionWorkloadConfig wl;
  wl.head_dim = 64;
  // More rows than one strip, so the strip buffers are full size.
  const auto p = GenerateAttentionProblem(rng, 2 * kSelectStripRows + 5, wl);
  SparseAttentionConfig cfg;
  cfg.top_k = 30;

  Workspace ws;
  SparseAttention(p.q, p.k, p.v, cfg, nullptr, ws.attention());
  const AttentionScratch& sc = ws.attention();
  const SelectScratch& sel = sc.select;
  const std::size_t n = p.q.rows();
  EXPECT_GE(sel.candidates.capacity(), n * 30);
  EXPECT_GE(sel.approx_scores.capacity(), n * 30);
  EXPECT_GE(sel.strip.capacity(), kSelectStripRows * n);
  EXPECT_GT(sel.kpack.bytes(), 0u);
  const std::size_t select_bytes =
      (sel.candidates.capacity() + sel.hist.capacity() +
       sel.keep.capacity()) * sizeof(std::uint32_t) +
      (sel.approx_scores.capacity() + sel.strip.capacity()) *
          sizeof(std::int32_t) +
      sel.qcodes.capacity() + sel.kcodes.capacity() + sel.kt.capacity() +
      sel.qstrip.capacity() + sel.kpack.bytes() + sel.gemm.CapacityBytes();
  EXPECT_EQ(sel.CapacityBytes(), select_bytes);
  // Nothing but the attention scratch was leased, and it holds the select
  // buffers plus the fused-kernel scores (Stage 2 gathers nothing).
  EXPECT_EQ(ws.CapacityBytes(), sc.CapacityBytes());
  EXPECT_EQ(sc.CapacityBytes(),
            select_bytes + sc.scores.exp_scores.capacity() * sizeof(float));

  // A second call at the same shape grows no scratch capacity.
  const std::size_t bytes = ws.CapacityBytes();
  SparseAttention(p.q, p.k, p.v, cfg, nullptr, ws.attention());
  EXPECT_EQ(ws.CapacityBytes(), bytes);
}

TEST(WorkspaceTest, WorkspacePathMatchesAllocatingPath) {
  Rng rng(12);
  AttentionWorkloadConfig wl;
  wl.head_dim = 16;
  const auto p = GenerateAttentionProblem(rng, 48, wl);
  SparseAttentionConfig cfg;
  cfg.top_k = 12;

  SparseAttentionStats plain_stats;
  const MatrixF plain = SparseAttention(p.q, p.k, p.v, cfg, &plain_stats);

  Workspace ws;
  SparseAttentionStats ws_stats;
  const MatrixF scratched =
      SparseAttention(p.q, p.k, p.v, cfg, &ws_stats, ws.attention());

  EXPECT_EQ(plain, scratched);  // bit-identical, not approximately equal
  EXPECT_EQ(plain_stats.exact_macs, ws_stats.exact_macs);
  EXPECT_EQ(plain_stats.selected_per_row, ws_stats.selected_per_row);
}

TEST(WorkspaceTest, FloatSlotsGrowStickyAndStayDistinct) {
  Workspace ws;
  MatrixF& a = ws.Float(0, 4, 8);
  MatrixF& b = ws.Float(1, 2, 2);
  EXPECT_NE(&a, &b);
  a(0, 0) = 1.f;
  const float* a_ptr = a.flat().data();
  MatrixF& a2 = ws.Float(0, 3, 8);  // smaller: same allocation
  EXPECT_EQ(a2.flat().data(), a_ptr);
}

TEST(SparseAttentionStatsTest, SelectedPerRowReportsActualMean) {
  Rng rng(13);
  AttentionWorkloadConfig wl;
  wl.head_dim = 16;
  const auto p = GenerateAttentionProblem(rng, 32, wl);

  // valid_len smaller than n: every row can only select valid_len keys,
  // and top_k exceeds it, so the mean must equal valid_len.
  SparseAttentionConfig cfg;
  cfg.top_k = 40;
  cfg.valid_len = 20;
  SparseAttentionStats stats;
  SparseAttention(p.q, p.k, p.v, cfg, &stats);
  EXPECT_EQ(stats.candidates.size(), stats.n * stats.selected_per_row);
  EXPECT_EQ(stats.selected_per_row, 20u);
}

// ---------------------------------------------------------- BatchRunner --

std::vector<MatrixF> SeededBatch(std::uint64_t seed, std::size_t count,
                                 std::size_t hidden) {
  Rng rng(seed);
  std::vector<MatrixF> xs;
  xs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t n = 8 + rng.NextIndex(40);  // variable lengths
    xs.push_back(MakeInputEmbedding(rng, n, hidden));
  }
  return xs;
}

TEST(BatchRunnerTest, RunVisitsEveryItemExactlyOnce) {
  BatchRunner runner(4);
  EXPECT_EQ(runner.workers(), 4u);
  std::vector<std::atomic<int>> visits(97);
  runner.Run(97, [&](std::size_t i, Workspace&) { visits[i].fetch_add(1); });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
  EXPECT_EQ(runner.items_completed(), 97u);
}

TEST(BatchRunnerTest, PropagatesItemException) {
  BatchRunner runner(2);
  EXPECT_THROW(runner.Run(8,
                          [](std::size_t i, Workspace&) {
                            if (i == 5) throw std::invalid_argument("bad");
                          }),
               std::invalid_argument);
}

TEST(BatchRunnerTest, FailedItemCancelsRemainingWork) {
  BatchRunner runner(4);
  std::atomic<int> executed{0};
  const std::size_t items = 256;
  EXPECT_THROW(
      runner.Run(items,
                 [&executed](std::size_t i, Workspace&) {
                   if (i == 0) throw std::runtime_error("poison item");
                   std::this_thread::sleep_for(std::chrono::milliseconds(1));
                   executed.fetch_add(1);
                 }),
      std::runtime_error);
  // The abort flag stops the other slots from draining the whole batch;
  // only items already in flight when item 0 threw may finish.
  EXPECT_LT(executed.load(), static_cast<int>(items) / 2);
}

TEST(BatchRunnerTest, ModelBatchMatchesSequentialBitExactly) {
  const ModelConfig small = ScaledDown(BertBase(), 6);
  const ModelInstance model(small, 2022);
  InferenceConfig inf;
  inf.mode = InferenceMode::kSparseInt8;
  inf.sparse.top_k = 16;

  const auto xs = SeededBatch(7, 12, small.encoder.hidden);

  // Sequential reference.
  std::vector<MatrixF> expected;
  std::vector<std::vector<LayerRunStats>> expected_stats;
  for (const auto& x : xs) {
    std::vector<LayerRunStats> s;
    expected.push_back(model.Forward(x, inf, &s));
    expected_stats.push_back(std::move(s));
  }

  // Parallel, workspace-backed.
  BatchRunner runner(4);
  std::vector<std::vector<LayerRunStats>> stats;
  const auto got = model.ForwardBatch(xs, inf, runner, &stats);

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "sequence " << i;
    ASSERT_EQ(stats[i].size(), expected_stats[i].size());
    for (std::size_t l = 0; l < stats[i].size(); ++l) {
      EXPECT_EQ(stats[i][l].exact_macs, expected_stats[i][l].exact_macs);
      EXPECT_EQ(stats[i][l].lut_multiplies,
                expected_stats[i][l].lut_multiplies);
    }
  }
}

TEST(BatchRunnerTest, Int8BatchReusesSlotArena) {
  // kSparseInt8 runs its int8 GEMMs on the slot's Workspace: after the
  // first batch the arena holds the activation codes, steps and products,
  // never a W pack (the weights were packed at load), and stops growing.
  const ModelConfig small = ScaledDown(BertBase(), 6);
  const ModelInstance model(small, 2022);
  InferenceConfig inf;
  inf.mode = InferenceMode::kSparseInt8;
  inf.sparse.top_k = 16;
  const auto xs = SeededBatch(8, 6, small.encoder.hidden);

  BatchRunner runner(1);
  const auto first = model.ForwardBatch(xs, inf, runner);
  Workspace& ws = runner.workspace(0);
  const std::size_t bytes = ws.CapacityBytes();
  EXPECT_EQ(ws.gemm().wpack.capacity(), 0u);
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(model.ForwardBatch(xs, inf, runner), first);
    EXPECT_EQ(ws.CapacityBytes(), bytes) << "round " << round;
  }
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(first[i], model.Forward(xs[i], inf)) << "sequence " << i;
  }
}

TEST(WorkspaceTest, Int8LayerKeepsCodesAndAccumulatorInTheArena) {
  // QuantizedLinear quantizes into ws.gemm().xcodes (once for Q, K and V)
  // and accumulates into ws.gemm().acc: after the first call at a shape,
  // repeated int8 layer calls reuse those buffers and hold the same bytes.
  EncoderConfig cfg;
  cfg.hidden = 64;
  cfg.heads = 4;
  Rng rng(21);
  const auto w =
      QuantizedEncoderWeights::FromFloat(MakeEncoderWeights(rng, cfg));
  const MatrixF x = rng.NormalMatrix(24, cfg.hidden, 0.0, 1.0);
  SparseAttentionConfig sa;
  sa.top_k = 8;
  const AttentionFn attn = MakeSparseAttentionFn(sa);

  Workspace ws;
  const MatrixF first = EncoderForward(x, w, cfg, attn, ws);
  const GemmScratch& gs = ws.gemm();
  EXPECT_GE(gs.xcodes.capacity(), x.rows() * cfg.ffn());  // FFN2's input
  EXPECT_GE(gs.acc.capacity(), x.rows() * cfg.ffn());     // FFN1's output
  const std::size_t bytes = ws.CapacityBytes();
  const std::int8_t* codes = gs.xcodes.flat().data();
  const std::int32_t* acc = gs.acc.flat().data();
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(EncoderForward(x, w, cfg, attn, ws), first);
    EXPECT_EQ(ws.CapacityBytes(), bytes) << "round " << round;
    EXPECT_EQ(gs.xcodes.flat().data(), codes);
    EXPECT_EQ(gs.acc.flat().data(), acc);
  }
}

TEST(BatchRunnerTest, EncoderBatchMatchesSequentialBitExactly) {
  Rng rng(5);
  EncoderConfig cfg;
  cfg.hidden = 64;
  cfg.heads = 2;
  const auto w = MakeEncoderWeights(rng, cfg);
  const auto xs = SeededBatch(9, 10, cfg.hidden);

  SparseAttentionConfig sa;
  sa.top_k = 8;
  const AttentionFn attn = MakeSparseAttentionFn(sa);
  std::vector<MatrixF> expected;
  for (const auto& x : xs) {
    Workspace ws;
    expected.push_back(EncoderForward(x, w, cfg, attn, ws));
  }

  BatchRunner runner(3);
  std::vector<MatrixF> got(xs.size());
  runner.Run(xs.size(), [&](std::size_t i, Workspace& ws) {
    got[i] = EncoderForward(xs[i], w, cfg, attn, ws);
  });
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "sequence " << i;
  }
}

TEST(BatchRunnerTest, WorkspaceDenseAttentionMatchesSequential) {
  // Dense attention on the per-slot arenas (scores slot + GEMM pack
  // buffer) must be bit-identical to the sequential reference on a fresh
  // Workspace per sequence.
  Rng rng(7);
  EncoderConfig cfg;
  cfg.hidden = 64;
  cfg.heads = 2;
  const auto w = MakeEncoderWeights(rng, cfg);
  const auto xs = SeededBatch(15, 6, cfg.hidden);

  BatchRunner runner(2);
  std::vector<MatrixF> got(xs.size());
  runner.Run(xs.size(), [&](std::size_t i, Workspace& ws) {
    got[i] = EncoderForward(xs[i], w, cfg, DenseAttention, ws);
  });
  for (std::size_t i = 0; i < xs.size(); ++i) {
    Workspace ws;
    EXPECT_EQ(got[i], EncoderForward(xs[i], w, cfg, DenseAttention, ws))
        << "sequence " << i;
  }
  EXPECT_GT(runner.workspace(0).CapacityBytes(), 0u);
}

TEST(BatchRunnerTest, SingleWorkerRunnerStillWorks) {
  const ModelConfig small = ScaledDown(BertBase(), 6);
  const ModelInstance model(small, 3);
  InferenceConfig inf;
  inf.mode = InferenceMode::kSparseFloat;
  inf.sparse.top_k = 8;
  const auto xs = SeededBatch(21, 4, small.encoder.hidden);

  BatchRunner runner(1);
  const auto got = model.ForwardBatch(xs, inf, runner);
  ASSERT_EQ(got.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(got[i], model.Forward(xs[i], inf));
  }
}

// -------------------------------------------------------- ShardByTokens --

TEST(ShardByTokensTest, PartitionsEveryIndexOnceAndBalances) {
  const std::vector<std::size_t> lengths = {400, 30, 350, 60, 90,
                                            300, 20, 250, 120, 80};
  const auto shards = ShardByTokens(lengths, 4);
  ASSERT_EQ(shards.size(), 4u);

  std::vector<int> seen(lengths.size(), 0);
  std::vector<std::size_t> tokens;
  for (const auto& shard : shards) {
    std::size_t t = 0;
    for (std::size_t idx : shard) {
      ASSERT_LT(idx, lengths.size());
      ++seen[idx];
      t += lengths[idx];
    }
    tokens.push_back(t);
  }
  for (int s : seen) EXPECT_EQ(s, 1);

  const std::size_t total =
      std::accumulate(lengths.begin(), lengths.end(), std::size_t{0});
  const std::size_t max_shard =
      *std::max_element(tokens.begin(), tokens.end());
  const std::size_t max_len =
      *std::max_element(lengths.begin(), lengths.end());
  // LPT guarantee: makespan <= 4/3 * OPT, with OPT >= max(total/m, max_len).
  const double opt_lower =
      std::max(static_cast<double>(total) / 4.0, static_cast<double>(max_len));
  EXPECT_LE(static_cast<double>(max_shard), 4.0 / 3.0 * opt_lower + 1e-9);
}

TEST(ShardByTokensTest, RejectsZeroWorkersHandlesSmallBatches) {
  EXPECT_THROW(ShardByTokens({10, 20}, 0), std::invalid_argument);
  const auto shards = ShardByTokens({10, 20}, 5);
  ASSERT_EQ(shards.size(), 5u);
  std::size_t nonempty = 0;
  for (const auto& s : shards) nonempty += s.empty() ? 0 : 1;
  EXPECT_EQ(nonempty, 2u);
}

// ------------------------------------------------------- Serving config --

TEST(ServingValidationTest, RejectsEachBadFieldWithClearMessage) {
  PoissonTraceConfig arrivals;
  arrivals.requests = 32;
  auto trace_flags = [](const PoissonTraceConfig& c, const std::string& field) {
    return HasIssueFor(CheckPoissonTraceConfig(c), field);
  };
  PoissonTraceConfig bad = arrivals;
  bad.arrival_rate_rps = 0;
  EXPECT_TRUE(trace_flags(bad, "arrival_rate_rps"));
  bad.arrival_rate_rps = -3;
  EXPECT_TRUE(trace_flags(bad, "arrival_rate_rps"));
  // NaN must not slip through a `<= 0` comparison.
  bad.arrival_rate_rps = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(trace_flags(bad, "arrival_rate_rps"));
  bad = arrivals;
  bad.requests = 0;
  EXPECT_TRUE(trace_flags(bad, "requests"));
  EXPECT_THROW(GeneratePoissonTrace(bad, Mrpc()), std::invalid_argument);
  EXPECT_TRUE(CheckPoissonTraceConfig(arrivals).empty());

  BatchFormerConfig former;
  former.max_batch = 0;
  EXPECT_TRUE(HasIssueFor(CheckBatchFormerConfig(former), "max_batch"));
  former = BatchFormerConfig{};
  former.timeout_s = -0.1;
  EXPECT_TRUE(HasIssueFor(CheckBatchFormerConfig(former), "timeout_s"));
  former.timeout_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(HasIssueFor(CheckBatchFormerConfig(former), "timeout_s"));

  const auto trace = GeneratePoissonTrace(arrivals, Mrpc());
  const auto batches = FormBatches(trace, BatchFormerConfig{});
  EXPECT_THROW(ScheduleFormedBatches(trace, batches, 0,
                                     BuildServiceModel(ServiceModelSpec{})),
               std::invalid_argument);
}

}  // namespace
}  // namespace latte
