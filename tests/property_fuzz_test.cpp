// Seed-sweep property tests: randomized instances checked against
// invariants that must hold for every input, not just the curated cases in
// the per-module suites.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "latte/latte.hpp"

namespace latte {
namespace {

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

// --------------------------------------------------- sparse attention ----

TEST_P(SeedSweep, SparseAttentionInvariants) {
  Rng rng(GetParam());
  const std::size_t n = 8 + rng.NextIndex(120);
  const std::size_t k = 1 + rng.NextIndex(40);
  const int bits = rng.NextUniform() < 0.5 ? 1 : 4;
  AttentionWorkloadConfig wl;
  wl.head_dim = 32;
  const auto p = GenerateAttentionProblem(rng, n, wl);

  SparseAttentionConfig cfg;
  cfg.top_k = k;
  cfg.bits = bits;
  SparseAttentionStats stats;
  const auto out = SparseAttention(p.q, p.k, p.v, cfg, &stats);

  // Shape and per-row candidate invariants.
  ASSERT_EQ(out.rows(), n);
  const std::size_t expect = std::min(k, n);
  ASSERT_EQ(stats.selected_per_row, expect);
  ASSERT_EQ(stats.candidates.size(), n * expect);
  for (std::size_t i = 0; i < n; ++i) {
    const auto cand = stats.candidate_row(i);
    std::unordered_set<std::uint32_t> uniq(cand.begin(), cand.end());
    EXPECT_EQ(uniq.size(), cand.size());  // no duplicates
    for (auto j : cand) EXPECT_LT(j, n);
  }
  // Output stays in the convex hull of V, coordinate-wise.
  for (std::size_t c = 0; c < p.v.cols(); ++c) {
    float lo = p.v(0, c), hi = p.v(0, c);
    for (std::size_t j = 1; j < n; ++j) {
      lo = std::min(lo, p.v(j, c));
      hi = std::max(hi, p.v(j, c));
    }
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_GE(out(i, c), lo - 1e-4f);
      EXPECT_LE(out(i, c), hi + 1e-4f);
    }
  }
}

TEST_P(SeedSweep, MaskedSelectionNeverLeaksPadding) {
  Rng rng(GetParam() * 31 + 7);
  const std::size_t n = 16 + rng.NextIndex(100);
  const std::size_t valid = 1 + rng.NextIndex(n);
  AttentionWorkloadConfig wl;
  wl.head_dim = 16;
  const auto p = GenerateAttentionProblem(rng, n, wl);
  SparseAttentionConfig cfg;
  cfg.top_k = 12;
  cfg.valid_len = valid;
  SparseAttentionStats stats;
  SparseAttention(p.q, p.k, p.v, cfg, &stats);
  EXPECT_EQ(stats.selected_per_row, std::min<std::size_t>(12, valid));
  EXPECT_EQ(stats.candidates.size(), n * stats.selected_per_row);
  for (const auto j : stats.candidates) EXPECT_LT(j, valid);
}

// ------------------------------------------------------- topk agreement --

TEST_P(SeedSweep, ThreeTopKImplementationsAgree) {
  Rng rng(GetParam() * 17 + 3);
  const std::size_t n = 1 + rng.NextIndex(400);
  const std::size_t k = 1 + rng.NextIndex(64);
  std::vector<std::int32_t> row(n);
  for (auto& x : row) {
    x = static_cast<std::int32_t>(rng.NextIndex(25)) - 12;  // heavy ties
  }
  const auto behavioural = TopK(row, k);
  // Independent oracle: a stable sort by descending score keeps equal
  // scores in index order, which is the sorter's tie-break.
  std::vector<ScoredIndex> sorted(n);
  for (std::size_t j = 0; j < n; ++j) {
    sorted[j] = {row[j], static_cast<std::uint32_t>(j)};
  }
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const ScoredIndex& a, const ScoredIndex& b) {
                     return a.score > b.score;
                   });
  sorted.resize(std::min(n, k));
  StreamingTopK streaming(k);
  for (std::size_t j = 0; j < n; ++j) {
    streaming.Push(row[j], static_cast<std::uint32_t>(j));
  }
  EXPECT_EQ(streaming.pushed(), n);
  EXPECT_EQ(streaming.cycles(), streaming.pushed());
  const auto& pushed = streaming.Result();
  ASSERT_EQ(behavioural.size(), sorted.size());
  ASSERT_EQ(behavioural.size(), pushed.size());
  for (std::size_t i = 0; i < behavioural.size(); ++i) {
    EXPECT_EQ(behavioural[i].score, sorted[i].score);
    EXPECT_EQ(behavioural[i].index, sorted[i].index);
    EXPECT_EQ(behavioural[i].score, pushed[i].score);
    EXPECT_EQ(behavioural[i].index, pushed[i].index);
  }
}

// The oracle SelectCandidates must reproduce: per-pair LUT dot products of
// the quantized codes (every key, d table lookups each), streamed row by
// row through the II=1 sorter model, which the padding keys never enter.
SelectionResult StreamingSelection(const MatrixF& q, const MatrixF& k,
                                   const SelectorConfig& cfg) {
  const QuantizedMatrix qq = Quantize(q, cfg.bits);
  const QuantizedMatrix qk = Quantize(k, cfg.bits);
  const std::size_t valid =
      cfg.valid_len == 0 ? k.rows() : std::min(cfg.valid_len, k.rows());
  const LutMultiplier lut;
  SelectionResult ref;
  StreamingTopK sorter(cfg.top_k);
  for (std::size_t i = 0; i < q.rows(); ++i) {
    sorter.Reset();
    for (std::size_t j = 0; j < k.rows(); ++j) {
      const std::int32_t score = lut.Dot(qq.codes.row(i), qk.codes.row(j));
      ref.lut_multiplies += q.cols();
      if (j < valid) sorter.Push(score, static_cast<std::uint32_t>(j));
    }
    EXPECT_EQ(sorter.cycles(), sorter.pushed());
    ref.sorter_cycles += sorter.cycles();
    ref.candidates.emplace_back();
    ref.approx_scores.emplace_back();
    for (const ScoredIndex& si : sorter.Result()) {
      ref.candidates.back().push_back(si.index);
      ref.approx_scores.back().push_back(si.score);
    }
  }
  return ref;
}

TEST_P(SeedSweep, SelectCandidatesMatchesStreamingSorter) {
  // d and the valid_len mode below are indexed by seed + bits, so seeds
  // 1..12 run every (bits, d, valid_len mode) combination once.
  Rng rng(GetParam() * 29 + 11);
  const std::size_t dims[] = {1, 17, 64, 65};
  for (const int bits : {1, 4}) {
    const std::size_t n_q = 1 + rng.NextIndex(400);
    std::size_t n_k = 1 + rng.NextIndex(400);
    if (n_k == n_q) n_k = n_q % 400 + 1;
    const std::size_t d = dims[(GetParam() + bits) % 4];
    SelectorConfig cfg;
    cfg.bits = bits;
    cfg.top_k = 1 + rng.NextIndex(64);
    // valid_len cycles through all keys (0), a prefix that is often
    // shorter than top_k, and a length past the block.
    switch ((GetParam() + bits) % 3) {
      case 1:
        if (n_k > 1) {
          cfg.valid_len =
              1 + rng.NextIndex(std::min(n_k - 1, 2 * cfg.top_k));
        }
        break;
      case 2:
        cfg.valid_len = n_k + 1 + rng.NextIndex(50);
        break;
      default:
        break;
    }
    const auto q = rng.NormalMatrix(n_q, d, 0.0, 1.0);
    const auto k = rng.NormalMatrix(n_k, d, 0.0, 1.0);
    const auto got = SelectCandidates(q, k, cfg);
    const auto want = StreamingSelection(q, k, cfg);
    SCOPED_TRACE(testing::Message()
                 << "bits=" << bits << " n_q=" << n_q << " n_k=" << n_k
                 << " d=" << d << " top_k=" << cfg.top_k
                 << " valid_len=" << cfg.valid_len);
    EXPECT_EQ(got.candidates, want.candidates);
    EXPECT_EQ(got.approx_scores, want.approx_scores);
    EXPECT_EQ(got.sorter_cycles, want.sorter_cycles);
    EXPECT_EQ(got.lut_multiplies, want.lut_multiplies);
  }
}

// The strip and key-count edges of the streamed select: query counts
// around one strip (and many strips), key counts around top_k, rows whose
// scores all tie, and valid_len shorter than top_k or past the block, at
// both code widths.
TEST(SelectCandidatesShapes, StripAndTopKEdgesMatchStreamingSorter) {
  constexpr std::size_t kTopK = 30, kDim = 64;
  const std::size_t s = kSelectStripRows;
  Rng rng(2022);
  for (const std::size_t n_q : {std::size_t{1}, s - 1, s, s + 1,
                                std::size_t{1024}}) {
    for (const std::size_t n_k : {std::size_t{1}, kTopK - 1, kTopK,
                                  kTopK + 1}) {
      for (const std::size_t valid_len : {std::size_t{0}, kTopK / 2,
                                          n_k + 7}) {
        for (const bool tied : {false, true}) {
          for (const int bits : {1, 4}) {
            SelectorConfig cfg;
            cfg.top_k = kTopK;
            cfg.bits = bits;
            cfg.valid_len = valid_len;
            // Constant Q and K quantize to one code each, so every score
            // of every row ties.
            const MatrixF q = tied ? MatrixF(n_q, kDim, 0.5f)
                                   : rng.NormalMatrix(n_q, kDim, 0.0, 1.0);
            const MatrixF k = tied ? MatrixF(n_k, kDim, -0.25f)
                                   : rng.NormalMatrix(n_k, kDim, 0.0, 1.0);
            SCOPED_TRACE(testing::Message()
                         << "n_q=" << n_q << " n_k=" << n_k
                         << " valid_len=" << valid_len << " tied=" << tied
                         << " bits=" << bits);
            const auto got = SelectCandidates(q, k, cfg);
            const auto want = StreamingSelection(q, k, cfg);
            EXPECT_EQ(got.candidates, want.candidates);
            EXPECT_EQ(got.approx_scores, want.approx_scores);
            EXPECT_EQ(got.sorter_cycles, want.sorter_cycles);
            EXPECT_EQ(got.lut_multiplies, want.lut_multiplies);
          }
        }
      }
    }
  }
}

TEST(SelectCandidatesShapes, EmptyShapesMatchStreamingSorter) {
  SelectorConfig cfg;
  cfg.top_k = 3;
  const std::pair<MatrixF, MatrixF> shapes[] = {
      {MatrixF(0, 8), MatrixF(5, 8)},   // no query rows
      {MatrixF(4, 8), MatrixF(0, 8)},   // no keys
      {MatrixF(4, 0), MatrixF(6, 0)}};  // zero head dim
  std::vector<SelectionResult> got;
  for (const auto& [q, k] : shapes) {
    got.push_back(SelectCandidates(q, k, cfg));
    const auto want = StreamingSelection(q, k, cfg);
    EXPECT_EQ(got.back().candidates, want.candidates);
    EXPECT_EQ(got.back().approx_scores, want.approx_scores);
    EXPECT_EQ(got.back().sorter_cycles, want.sorter_cycles);
    EXPECT_EQ(got.back().lut_multiplies, want.lut_multiplies);
  }
  // No query rows: no candidate lists.
  EXPECT_TRUE(got[0].candidates.empty());
  EXPECT_EQ(got[0].sorter_cycles, 0u);
  // No keys: one empty list per query row.
  ASSERT_EQ(got[1].candidates.size(), 4u);
  for (const auto& c : got[1].candidates) EXPECT_TRUE(c.empty());
  EXPECT_EQ(got[1].sorter_cycles, 0u);
  // Zero head dim: every score is 0, so the first top_k keys win.
  ASSERT_EQ(got[2].candidates.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(got[2].candidates[i], (std::vector<std::uint32_t>{0, 1, 2}));
    EXPECT_EQ(got[2].approx_scores[i], (std::vector<std::int32_t>{0, 0, 0}));
  }
  EXPECT_EQ(got[2].sorter_cycles, 24u);
}

// ----------------------------------------------------------- pipeline ----

TEST_P(SeedSweep, PipelineScheduleInvariants) {
  Rng rng(GetParam() * 101 + 13);
  const std::size_t batch = 1 + rng.NextIndex(12);
  std::vector<std::size_t> lens(batch);
  for (auto& l : lens) l = 16 + rng.NextIndex(800);

  const auto ops =
      EncoderOps(BertBase().encoder, AttentionMode::kSparseTopK, 30);
  const double s_avg = static_cast<double>(std::accumulate(
                           lens.begin(), lens.end(), std::size_t{0})) /
                       static_cast<double>(batch);
  const auto models = BuildStageTimings(ops, AlveoU280Slr0(), s_avg);

  PipelineSimConfig cfg;
  cfg.layers = 1 + rng.NextIndex(6);
  cfg.double_buffer = rng.NextUniform() < 0.7;
  const auto res = SimulatePipeline(lens, models, cfg);

  // Every (seq, layer, stage) job exists exactly once.
  EXPECT_EQ(res.jobs.size(), batch * cfg.layers * models.size());
  // Dataflow order per sequence; makespan covers everything; durations > 0.
  double max_end = 0;
  for (const auto& j : res.jobs) {
    EXPECT_GT(j.end, j.start);
    max_end = std::max(max_end, j.end);
  }
  EXPECT_DOUBLE_EQ(res.makespan, max_end);
  // Each stage is one instance: its jobs run in stream order, never
  // overlapping.
  std::vector<double> stage_end(models.size(), 0.0);
  for (const auto& j : res.jobs) {
    EXPECT_GE(j.start, stage_end[j.stage]);
    stage_end[j.stage] = j.end;
  }
  // Utilization bounded by 1 per stage.
  for (double u : res.StageUtilization()) {
    EXPECT_LE(u, 1.0 + 1e-9);
    EXPECT_GE(u, 0.0);
  }
  // Serial time never beats the pipelined makespan.
  EXPECT_GE(res.SerialTime(), res.makespan - 1e-12);
}

// ------------------------------------------------------------- batching --

TEST_P(SeedSweep, BatchPoliciesPreserveTokensAndOrderInvariants) {
  Rng rng(GetParam() * 7 + 1);
  const std::size_t n = 1 + rng.NextIndex(64);
  std::vector<std::size_t> lens(n);
  for (auto& l : lens) l = 1 + rng.NextIndex(800);
  const std::size_t useful = std::accumulate(lens.begin(), lens.end(),
                                             std::size_t{0});

  for (auto policy : {BatchPolicy::kPadToMax, BatchPolicy::kMicroBatch,
                      BatchPolicy::kSortedDescending}) {
    const auto b = MakeBatch(lens, policy, 4);
    EXPECT_EQ(b.UsefulTokens(), useful);
    EXPECT_GE(b.EffectiveTokens(), useful);
    EXPECT_EQ(b.effective_lengths.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_GE(b.effective_lengths[i], b.original_lengths[i]);
    }
  }
  // Sorted descending is exactly the sorted original lengths.
  const auto sorted = MakeBatch(lens, BatchPolicy::kSortedDescending);
  EXPECT_DOUBLE_EQ(sorted.PaddingOverhead(), 1.0);
}

// ---------------------------------------------------------------- HBM ----

// Largest-remainder apportionment with its remainders stored, the plain
// form of the rule: ApportionChannels recomputes each remainder instead
// and must give the same channels.
std::vector<std::size_t> RefApportion(std::size_t total,
                                      const std::vector<double>& demand) {
  std::vector<std::size_t> out(demand.size(), 0);
  double sum = 0;
  for (double d : demand) sum += d > 0 ? d : 0.0;
  if (sum == 0) return out;
  std::vector<double> remainder(demand.size(), 0.0);
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < demand.size(); ++i) {
    if (demand[i] <= 0) continue;
    const double exact = static_cast<double>(total) * demand[i] / sum;
    out[i] = std::max<std::size_t>(1, static_cast<std::size_t>(exact));
    remainder[i] = exact - std::floor(exact);
    assigned += out[i];
  }
  while (assigned < total) {
    std::size_t best = 0;
    double best_r = -1;
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (demand[i] > 0 && remainder[i] > best_r) {
        best_r = remainder[i];
        best = i;
      }
    }
    ++out[best];
    remainder[best] = -1;
    ++assigned;
  }
  while (assigned > total) {
    const auto most = std::max_element(out.begin(), out.end());
    if (*most <= 1) break;
    --*most;
    --assigned;
  }
  return out;
}

TEST_P(SeedSweep, HbmApportionmentInvariants) {
  Rng rng(GetParam() * 11 + 5);
  for (int trial = 0; trial < 64; ++trial) {
    auto spec = AlveoU280Slr0();
    // Few channels as well as many; tiny demands next to large ones make
    // the at-least-one rule over-assign, so channels are clawed back.
    if (rng.NextUniform() < 0.3) spec.hbm_channels = 3 + rng.NextIndex(6);
    const std::size_t streams =
        1 + rng.NextIndex(std::min<std::size_t>(6, spec.hbm_channels));
    std::vector<double> demand(streams);
    for (auto& d : demand) {
      const double u = rng.NextUniform();
      d = u < 0.2   ? 0.0
          : u < 0.4 ? rng.NextUniform(1e-3, 1.0)
                    : rng.NextUniform(1.0, 1e9);
    }
    std::vector<std::size_t> ch(streams);
    ApportionChannels(spec, demand, ch);
    EXPECT_EQ(ch, RefApportion(spec.hbm_channels, demand));
    std::size_t sum = 0;
    bool any_active = false;
    for (std::size_t i = 0; i < streams; ++i) {
      sum += ch[i];
      if (demand[i] > 0) {
        any_active = true;
        EXPECT_GE(ch[i], 1u);
      } else {
        EXPECT_EQ(ch[i], 0u);
      }
    }
    if (any_active) {
      EXPECT_EQ(sum, spec.hbm_channels);
    }
  }
}

// ------------------------------------------------------------ quantize ---

TEST_P(SeedSweep, QuantizationMonotoneAndBounded) {
  Rng rng(GetParam() * 23 + 9);
  const auto m = rng.NormalMatrix(4, 64, 0.0, 2.0);
  for (int bits : {1, 4, 8}) {
    const auto q = Quantize(m, bits);
    auto src = m.flat();
    auto codes = q.codes.flat();
    for (std::size_t a = 0; a < src.size(); ++a) {
      EXPECT_LE(std::abs(static_cast<int>(codes[a])), MaxCode(bits));
      for (std::size_t b = a + 1; b < std::min(src.size(), a + 8); ++b) {
        if (src[a] > src[b]) {
          EXPECT_GE(codes[a], codes[b]);
        }
      }
    }
  }
}

TEST_P(SeedSweep, MakespanOnlyPipelineEqualsTheJobListsBitForBit) {
  Rng rng(GetParam() * 977 + 5);
  const std::size_t batch = 1 + rng.NextIndex(40);
  std::vector<std::size_t> lens(batch);
  for (auto& l : lens) l = 1 + rng.NextIndex(1024);
  const double s_avg = 1.0 + rng.NextUniform(0, 600);

  const auto mode = rng.NextUniform() < 0.5 ? AttentionMode::kSparseTopK
                                            : AttentionMode::kDense;
  const auto three = BuildStageTimings(EncoderOps(BertBase().encoder, mode),
                                       AlveoU280Slr0(), s_avg);
  // The sparse attention operators alone fill two stages (Fig 7(b)).
  auto ops = EncoderOps(BertBase().encoder, AttentionMode::kSparseTopK, 30);
  std::erase_if(ops, [](const OpSpec& op) { return !op.in_attention; });
  const auto two = BuildStageTimings(ops, AlveoU280Slr0(), s_avg);
  ASSERT_EQ(three.size(), 3u);
  ASSERT_EQ(two.size(), 2u);
  // A stage with no work takes zero seconds at every length.
  auto with_idle = three;
  with_idle[rng.NextIndex(3)] = StageTimingModel{};

  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const auto& stages : {three, two, with_idle}) {
    for (const bool double_buffer : {true, false}) {
      PipelineSimConfig cfg;
      cfg.layers = 1 + rng.NextIndex(24);
      cfg.double_buffer = double_buffer;
      const double full = SimulatePipeline(lens, stages, cfg).makespan;
      EXPECT_EQ(bits(PipelineMakespan(lens, stages, cfg)), bits(full))
          << "B=" << batch << " S=" << stages.size() << " layers="
          << cfg.layers << " double_buffer=" << double_buffer;
    }
  }

  // NaN, +-inf and negative stage times are named, as SimulatePipeline
  // names them.
  const double inf = std::numeric_limits<double>::infinity();
  StageTimingModel nan_stage;  // 0 FLOPs on 0 DSPs: 0 / 0
  nan_stage.dsp = 0;
  StageTimingModel pos_inf;  // traffic with no HBM share
  pos_inf.offchip_bytes = {0, 1, 0};
  pos_inf.hbm_bytes_per_s = 0;
  StageTimingModel neg_inf;  // negative work on every roof, no resources
  neg_inf.flops = neg_inf.lut_ops = neg_inf.offchip_bytes = {0, -1, 0};
  neg_inf.dsp = neg_inf.lut_lanes = neg_inf.hbm_bytes_per_s = 0;
  StageTimingModel negative;
  negative.flops = negative.lut_ops = negative.offchip_bytes = {0, 0, -1};
  ASSERT_EQ(neg_inf.Seconds(10), -inf);
  ASSERT_EQ(pos_inf.Seconds(10), inf);
  for (const auto& bad : {nan_stage, pos_inf, neg_inf, negative}) {
    auto stages = three;
    const std::size_t at = rng.NextIndex(3);
    stages[at] = bad;
    try {
      PipelineMakespan(lens, stages, PipelineSimConfig{});
      ADD_FAILURE() << "bad stage time accepted at stage " << at;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("stage " + std::to_string(at)),
                std::string::npos)
          << e.what();
    }
  }
}

// ---------------------------------------------------------- accelerator --

TEST_P(SeedSweep, AcceleratorLatenciesConsistent) {
  Rng rng(GetParam() * 41 + 2);
  const std::size_t batch = 1 + rng.NextIndex(8);
  std::vector<std::size_t> lens(batch);
  for (auto& l : lens) l = 16 + rng.NextIndex(400);
  const auto model = ModelZoo()[rng.NextIndex(4)];

  AcceleratorConfig cfg;
  cfg.top_k = 10 + rng.NextIndex(50);
  cfg.mode =
      rng.NextUniform() < 0.5 ? FpgaMode::kLengthAware : FpgaMode::kBaseline;
  const auto schedule = RunAccelerator(model, lens, cfg);
  const double attention = AttentionLatency(model, lens, cfg);
  EXPECT_GT(schedule.makespan, 0);
  EXPECT_GT(attention, 0);
  EXPECT_LE(attention, schedule.makespan + 1e-12);
  EXPECT_EQ(schedule.jobs.size(), batch * model.layers * 3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace latte
