// Tests for candidate pre-selection, the fused kernel and the end-to-end
// sparse attention operator.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "core/candidate_selector.hpp"
#include "core/fused_kernel.hpp"
#include "core/sparse_attention.hpp"
#include "nn/attention.hpp"
#include "runtime/workspace.hpp"
#include "tensor/kernels.hpp"
#include "tensor/matmul.hpp"
#include "tensor/rng.hpp"
#include "workload/synthetic.hpp"

namespace latte {
namespace {

AttentionProblem MakeProblem(std::uint64_t seed, std::size_t n,
                             std::size_t d = 32) {
  Rng rng(seed);
  AttentionWorkloadConfig cfg;
  cfg.head_dim = d;
  return GenerateAttentionProblem(rng, n, cfg);
}

// ----------------------------------------------------- CandidateSelector --

TEST(CandidateSelectorTest, SelectsRequestedCount) {
  const auto p = MakeProblem(1, 64);
  SelectorConfig cfg;
  cfg.top_k = 10;
  const auto sel = SelectCandidates(p.q, p.k, cfg);
  ASSERT_EQ(sel.candidates.size(), 64u);
  for (const auto& c : sel.candidates) EXPECT_EQ(c.size(), 10u);
}

TEST(CandidateSelectorTest, DegeneratesToAllWhenKExceedsN) {
  const auto p = MakeProblem(2, 8);
  SelectorConfig cfg;
  cfg.top_k = 50;
  const auto sel = SelectCandidates(p.q, p.k, cfg);
  for (const auto& c : sel.candidates) {
    EXPECT_EQ(c.size(), 8u);
    std::unordered_set<std::uint32_t> uniq(c.begin(), c.end());
    EXPECT_EQ(uniq.size(), 8u);  // every key selected exactly once
  }
}

TEST(CandidateSelectorTest, RejectsBadConfig) {
  const auto p = MakeProblem(3, 4);
  SelectorConfig cfg;
  cfg.top_k = 0;
  EXPECT_THROW(SelectCandidates(p.q, p.k, cfg), std::invalid_argument);
  cfg.top_k = 2;
  cfg.bits = 8;  // pre-selection supports 1 or 4 only
  EXPECT_THROW(SelectCandidates(p.q, p.k, cfg), std::invalid_argument);
}

TEST(CandidateSelectorTest, CountsLutWorkAndSorterCycles) {
  const auto p = MakeProblem(4, 16, 32);
  SelectorConfig cfg;
  cfg.top_k = 4;
  const auto sel = SelectCandidates(p.q, p.k, cfg);
  EXPECT_EQ(sel.lut_multiplies, 16u * 16u * 32u);
  EXPECT_EQ(sel.sorter_cycles, 16u * 16u);  // n elements streamed per row
}

TEST(CandidateSelectorTest, FourBitRecoversExactTopKOnSeparatedScores) {
  // Keys separated by more than one 4-bit quantization step along a single
  // direction: the selected SET must match the exact Top-k (order within
  // the set may differ where quantization introduces ties).
  const std::size_t n = 12, d = 8;
  MatrixF q(1, d), k(n, d);
  q(0, 0) = 1.f;
  for (std::size_t j = 0; j < n; ++j) {
    k(j, 0) = static_cast<float>(j + 1) * 2.f;  // step 2 > M/7 = 24/7
  }
  SelectorConfig cfg;
  cfg.top_k = 3;
  cfg.bits = 4;
  const auto sel = SelectCandidates(q, k, cfg);
  const auto exact = ExactTopKCandidates(q, k, 3);
  auto got = sel.candidates[0];
  auto want = exact[0];
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

TEST(CandidateSelectorTest, OneBitBeatsRandomSelection) {
  // On a concentrated workload 1-bit selection must capture far more exact
  // Top-k hits than chance (k/n).
  const auto p = MakeProblem(5, 128, 64);
  SelectorConfig cfg;
  cfg.top_k = 16;
  const auto sel = SelectCandidates(p.q, p.k, cfg);
  const auto exact = ExactTopKCandidates(p.q, p.k, 16);
  double recall = 0;
  for (std::size_t i = 0; i < exact.size(); ++i) {
    std::unordered_set<std::uint32_t> got(sel.candidates[i].begin(),
                                          sel.candidates[i].end());
    std::size_t hit = 0;
    for (auto j : exact[i]) hit += got.count(j);
    recall += static_cast<double>(hit) / 16.0;
  }
  recall /= static_cast<double>(exact.size());
  EXPECT_GT(recall, 2.5 * 16.0 / 128.0);  // >2.5x chance
}

TEST(CandidateSelectorTest, HigherBitsNeverHurtRankFidelity) {
  const auto p = MakeProblem(6, 96, 64);
  auto recall_at = [&](int bits) {
    SelectorConfig cfg;
    cfg.top_k = 12;
    cfg.bits = bits;
    const auto sel = SelectCandidates(p.q, p.k, cfg);
    const auto exact = ExactTopKCandidates(p.q, p.k, 12);
    double r = 0;
    for (std::size_t i = 0; i < exact.size(); ++i) {
      std::unordered_set<std::uint32_t> got(sel.candidates[i].begin(),
                                            sel.candidates[i].end());
      std::size_t hit = 0;
      for (auto j : exact[i]) hit += got.count(j);
      r += static_cast<double>(hit) / 12.0;
    }
    return r / static_cast<double>(exact.size());
  };
  EXPECT_GE(recall_at(4) + 0.02, recall_at(1));  // 4-bit ~>= 1-bit
}

// ----------------------------------------------------------- FusedKernel --

TEST(FusedKernelTest, MatchesUnfusedReference) {
  Rng rng(7);
  const auto q = rng.NormalMatrix(1, 16, 0.0, 1.0);
  const auto ks = rng.NormalMatrix(5, 16, 0.0, 1.0);
  FusedKernelConfig cfg;
  cfg.scale = 0.25f;
  const auto res = FusedScoreKernel(q.row(0), ks, cfg);
  ASSERT_EQ(res.exp_scores.size(), 5u);
  double sum = 0;
  for (std::size_t j = 0; j < 5; ++j) {
    float dot = 0;
    for (std::size_t c = 0; c < 16; ++c) dot += q(0, c) * ks(j, c);
    const float expect = std::exp(dot * 0.25f);
    EXPECT_NEAR(res.exp_scores[j], expect, 1e-4f * expect);
    sum += expect;
  }
  EXPECT_NEAR(res.sum, sum, 1e-3 * sum);
}

TEST(FusedKernelTest, CycleModelRespectsUnroll) {
  Rng rng(9);
  const auto q = rng.NormalMatrix(1, 64, 0.0, 1.0);
  const auto ks = rng.NormalMatrix(10, 64, 0.0, 1.0);
  FusedKernelConfig cfg;
  cfg.unroll = 8;
  EXPECT_EQ(FusedScoreKernel(q.row(0), ks, cfg).cycles, 10u * 8u);
  cfg.unroll = 64;
  EXPECT_EQ(FusedScoreKernel(q.row(0), ks, cfg).cycles, 10u);
  cfg.unroll = 3;  // non-divisible: ceil(64/3) = 22
  EXPECT_EQ(FusedScoreKernel(q.row(0), ks, cfg).cycles, 10u * 22u);
}

TEST(FusedKernelTest, SaturatesLargeExponents) {
  MatrixF q(1, 1, 100.f);
  MatrixF ks(1, 1, 100.f);
  FusedKernelConfig cfg;  // raw score 1e4 would overflow exp()
  const auto res = FusedScoreKernel(q.row(0), ks, cfg);
  EXPECT_TRUE(std::isfinite(res.exp_scores[0]));
  EXPECT_NEAR(res.exp_scores[0], std::exp(80.f), 1e-3f * std::exp(80.f));
}

TEST(FusedKernelTest, RejectsBadArguments) {
  MatrixF q(1, 4, 1.f);
  MatrixF ks(2, 8, 1.f);
  FusedKernelConfig cfg;
  EXPECT_THROW(FusedScoreKernel(q.row(0), ks, cfg), std::invalid_argument);
  MatrixF ks2(2, 4, 1.f);
  cfg.unroll = 0;
  EXPECT_THROW(FusedScoreKernel(q.row(0), ks2, cfg), std::invalid_argument);
}

TEST(WeightedContextTest, NormalizedConvexCombination) {
  MatrixF vs(2, 3);
  for (std::size_t c = 0; c < 3; ++c) {
    vs(0, c) = 1.f;
    vs(1, c) = 3.f;
  }
  FusedScoreResult fs;
  fs.exp_scores = {1.f, 1.f};
  fs.sum = 2.0;
  const auto z = WeightedContext(fs, vs);
  for (float x : z) EXPECT_FLOAT_EQ(x, 2.f);  // midpoint
}

// The per-candidate formulas the fused kernel and the context must equal
// bit for bit, one candidate at a time, whatever they batch internally.
TEST(FusedKernelTest, IndexedRowsMatchPerCandidateFormulasBitForBit) {
  Rng rng(31);
  const auto q = rng.NormalMatrix(1, 64, 0.0, 1.0);
  const auto k = rng.NormalMatrix(40, 64, 0.0, 1.0);
  const auto v = rng.NormalMatrix(40, 24, 0.0, 1.0);
  // 11 candidates: two groups of four plus a tail, repeats allowed.
  const std::vector<std::uint32_t> idx = {7, 3, 39, 0, 12, 12, 25, 8, 1, 30, 2};
  FusedKernelConfig cfg;
  cfg.scale = 0.125f;
  FusedScoreResult got;
  FusedScoreKernel(q.row(0), k, idx, cfg, got);
  ASSERT_EQ(got.exp_scores.size(), idx.size());
  double sum = 0;
  for (std::size_t j = 0; j < idx.size(); ++j) {
    const float dot = DotProduct(q.row(0), k.row(idx[j])) * cfg.scale;
    const float want = std::exp(std::clamp(dot, -80.f, 80.f));
    EXPECT_EQ(got.exp_scores[j], want) << "candidate " << j;
    sum += want;
  }
  EXPECT_EQ(got.sum, sum);

  // The context on the kernel's weights with a zero weight inside a group
  // of four, which the context must skip.
  FusedScoreResult weights = got;
  weights.exp_scores[5] = 0.f;
  weights.sum = 0;
  for (const float w : weights.exp_scores) weights.sum += w;
  std::vector<float> z(v.cols());
  WeightedContext(weights, v, idx, z);
  std::vector<float> want(v.cols(), 0.f);
  for (std::size_t j = 0; j < idx.size(); ++j) {
    const float w = weights.exp_scores[j];
    if (w == 0.f) continue;
    for (std::size_t c = 0; c < v.cols(); ++c) want[c] += w * v(idx[j], c);
  }
  const float inv = static_cast<float>(1.0 / weights.sum);
  for (auto& x : want) x *= inv;
  EXPECT_EQ(z, want);

  // The gathered overloads: the same bits from copies of the rows.
  MatrixF ks, vs;
  GatherRowsInto(k, idx, ks);
  GatherRowsInto(v, idx, vs);
  const FusedScoreResult gathered = FusedScoreKernel(q.row(0), ks, cfg);
  EXPECT_EQ(gathered.exp_scores, got.exp_scores);
  EXPECT_EQ(gathered.sum, got.sum);
  EXPECT_EQ(WeightedContext(weights, vs), want);
}

TEST(FusedKernelTest, IndexedRowsRejectAnIndexPastTheMatrix) {
  const MatrixF q(1, 4, 1.f), k(3, 4, 1.f);
  const std::vector<std::uint32_t> idx = {0, 3};
  FusedKernelConfig cfg;
  FusedScoreResult out;
  EXPECT_THROW(FusedScoreKernel(q.row(0), k, idx, cfg, out), std::out_of_range);
  out.exp_scores = {1.f, 1.f};
  std::vector<float> z(4);
  EXPECT_THROW(WeightedContext(out, k, idx, z), std::out_of_range);
}

// ------------------------------------------------------- SparseAttention --

TEST(SparseAttentionTest, EqualsDenseWhenKCoversAll) {
  const auto p = MakeProblem(10, 24);
  SparseAttentionConfig cfg;
  cfg.top_k = 24;  // every key selected
  const auto sparse = SparseAttention(p.q, p.k, p.v, cfg);
  Workspace ws;
  const auto dense = DenseAttention(p.q, p.k, p.v, ws);
  ASSERT_EQ(sparse.rows(), dense.rows());
  for (std::size_t i = 0; i < sparse.size(); ++i) {
    EXPECT_NEAR(sparse.flat()[i], dense.flat()[i], 2e-3f);
  }
}

TEST(SparseAttentionTest, MatchesOracleOnItsOwnCandidates) {
  const auto p = MakeProblem(11, 48);
  SparseAttentionConfig cfg;
  cfg.top_k = 8;
  SparseAttentionStats stats;
  const auto sparse = SparseAttention(p.q, p.k, p.v, cfg, &stats);
  const auto oracle = AttentionOnCandidates(p.q, p.k, p.v, stats.candidates,
                                            stats.selected_per_row);
  // Stage 2 reads the candidate rows in place; the oracle gathers copies.
  // Same kernel body on the same rows: the same bits.
  EXPECT_EQ(sparse, oracle);
}

TEST(SparseAttentionTest, StatsAccounting) {
  const auto p = MakeProblem(12, 40, 32);
  SparseAttentionConfig cfg;
  cfg.top_k = 10;
  SparseAttentionStats stats;
  SparseAttention(p.q, p.k, p.v, cfg, &stats);
  EXPECT_EQ(stats.n, 40u);
  EXPECT_EQ(stats.selected_per_row, 10u);
  EXPECT_EQ(stats.exact_macs, 40u * 10u * 32u * 2u);
  EXPECT_EQ(stats.lut_multiplies, 40u * 40u * 32u);
  EXPECT_EQ(stats.candidates.size(), 40u * 10u);
}

TEST(SparseAttentionTest, ComplexityLinearInN) {
  // Exact MACs scale as n*k*d, not n^2*d: doubling n doubles exact work.
  SparseAttentionConfig cfg;
  cfg.top_k = 8;
  SparseAttentionStats s1, s2;
  const auto p1 = MakeProblem(13, 50);
  const auto p2 = MakeProblem(14, 100);
  SparseAttention(p1.q, p1.k, p1.v, cfg, &s1);
  SparseAttention(p2.q, p2.k, p2.v, cfg, &s2);
  EXPECT_EQ(s2.exact_macs, 2 * s1.exact_macs);
}

TEST(SparseAttentionTest, ShapeMismatchThrows) {
  MatrixF q(4, 8), k(4, 16), v(4, 8);
  SparseAttentionConfig cfg;
  EXPECT_THROW(SparseAttention(q, k, v, cfg), std::invalid_argument);
}

TEST(SparseAttentionTest, AttentionFnAdapterWorks) {
  const auto p = MakeProblem(15, 16);
  SparseAttentionConfig cfg;
  cfg.top_k = 16;
  const AttentionFn fn = MakeSparseAttentionFn(cfg);
  Workspace ws;
  const auto a = fn(p.q, p.k, p.v, ws);
  const auto b = SparseAttention(p.q, p.k, p.v, cfg);
  EXPECT_EQ(a, b);
}

// Property sweep: output rows are convex combinations of V rows, so every
// output coordinate lies within the min/max of the corresponding V column.
class SparseAttentionProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, int>> {};

TEST_P(SparseAttentionProperty, OutputInsideVHull) {
  const auto [n, k, bits] = GetParam();
  const auto p = MakeProblem(20 + n + k, n);
  SparseAttentionConfig cfg;
  cfg.top_k = k;
  cfg.bits = bits;
  const auto out = SparseAttention(p.q, p.k, p.v, cfg);
  for (std::size_t c = 0; c < p.v.cols(); ++c) {
    float lo = p.v(0, c), hi = p.v(0, c);
    for (std::size_t j = 1; j < p.v.rows(); ++j) {
      lo = std::min(lo, p.v(j, c));
      hi = std::max(hi, p.v(j, c));
    }
    for (std::size_t i = 0; i < out.rows(); ++i) {
      EXPECT_GE(out(i, c), lo - 1e-4f);
      EXPECT_LE(out(i, c), hi + 1e-4f);
    }
  }
}

TEST_P(SparseAttentionProperty, RetainedCandidatesSortedByApproxScore) {
  const auto [n, k, bits] = GetParam();
  const auto p = MakeProblem(50 + n, n);
  SelectorConfig cfg;
  cfg.top_k = k;
  cfg.bits = bits;
  const auto sel = SelectCandidates(p.q, p.k, cfg);
  for (const auto& scores : sel.approx_scores) {
    for (std::size_t i = 1; i < scores.size(); ++i) {
      EXPECT_GE(scores[i - 1], scores[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SparseAttentionProperty,
    ::testing::Combine(::testing::Values<std::size_t>(4, 17, 64),
                       ::testing::Values<std::size_t>(1, 5, 30),
                       ::testing::Values(1, 4)));

}  // namespace
}  // namespace latte
