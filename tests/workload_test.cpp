// Tests for dataset specs, the length sampler, batching policies and the
// synthetic attention workload generator.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "workload/arrivals.hpp"
#include "workload/batch.hpp"
#include "workload/dataset.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace_io.hpp"

namespace latte {
namespace {

// -------------------------------------------------------------- Dataset --

TEST(DatasetTest, Table1Statistics) {
  const auto squad = Squad();
  EXPECT_DOUBLE_EQ(squad.avg_len, 177);
  EXPECT_DOUBLE_EQ(squad.max_len, 821);
  EXPECT_NEAR(squad.MaxAvgRatio(), 4.6, 0.05);
  EXPECT_EQ(squad.metric, Metric::kF1);

  const auto rte = Rte();
  EXPECT_DOUBLE_EQ(rte.avg_len, 68);
  EXPECT_NEAR(rte.MaxAvgRatio(), 3.7, 0.05);
  EXPECT_EQ(rte.metric, Metric::kAccuracy);

  const auto mrpc = Mrpc();
  EXPECT_NEAR(mrpc.MaxAvgRatio(), 1.6, 0.05);
}

TEST(DatasetTest, ZooOrder) {
  const auto zoo = DatasetZoo();
  ASSERT_EQ(zoo.size(), 3u);
  EXPECT_EQ(zoo[0].name, "SQuAD v1.1");
  EXPECT_EQ(zoo[1].name, "RTE");
  EXPECT_EQ(zoo[2].name, "MRPC");
}

TEST(LengthSamplerTest, SamplesWithinBounds) {
  for (const auto& spec : DatasetZoo()) {
    LengthSampler sampler(spec);
    Rng rng(99);
    for (int i = 0; i < 2000; ++i) {
      const auto n = sampler.Sample(rng);
      EXPECT_GE(n, static_cast<std::size_t>(spec.min_len));
      EXPECT_LE(n, static_cast<std::size_t>(spec.max_len));
    }
  }
}

TEST(LengthSamplerTest, MeanApproximatelyMatchesSpec) {
  for (const auto& spec : DatasetZoo()) {
    LengthSampler sampler(spec);
    Rng rng(7);
    const auto lens = sampler.SampleMany(rng, 20000);
    const double mean =
        static_cast<double>(std::accumulate(lens.begin(), lens.end(),
                                            std::size_t{0})) /
        static_cast<double>(lens.size());
    // Truncation at max shifts the mean slightly below the target.
    EXPECT_NEAR(mean, spec.avg_len, spec.avg_len * 0.12) << spec.name;
  }
}

TEST(LengthSamplerTest, LongTailExistsForSquad) {
  LengthSampler sampler(Squad());
  Rng rng(13);
  const auto lens = sampler.SampleMany(rng, 20000);
  const auto mx = *std::max_element(lens.begin(), lens.end());
  EXPECT_GT(mx, 600u);  // the 821 tail is reachable
}

TEST(LengthSamplerTest, Deterministic) {
  LengthSampler sampler(Rte());
  Rng a(5), b(5);
  EXPECT_EQ(sampler.SampleMany(a, 100), sampler.SampleMany(b, 100));
}

// ---------------------------------------------------------------- Batch --

TEST(BatchTest, PadToMaxUsesBatchMaximum) {
  const auto b = MakeBatch({10, 30, 20}, BatchPolicy::kPadToMax);
  EXPECT_EQ(b.effective_lengths, (std::vector<std::size_t>{30, 30, 30}));
  EXPECT_EQ(b.UsefulTokens(), 60u);
  EXPECT_EQ(b.EffectiveTokens(), 90u);
  EXPECT_DOUBLE_EQ(b.PaddingOverhead(), 1.5);
}

TEST(BatchTest, SortedDescendingNoPadding) {
  const auto b = MakeBatch({10, 30, 20}, BatchPolicy::kSortedDescending);
  EXPECT_EQ(b.effective_lengths, (std::vector<std::size_t>{30, 20, 10}));
  EXPECT_DOUBLE_EQ(b.PaddingOverhead(), 1.0);
}

TEST(BatchTest, MicroBatchPadsWithinGroups) {
  const auto b =
      MakeBatch({10, 30, 20, 40}, BatchPolicy::kMicroBatch, /*micro=*/2);
  // Sorted desc: 40 30 | 20 10; padded within micro-batches of 2.
  EXPECT_EQ(b.effective_lengths, (std::vector<std::size_t>{40, 40, 20, 20}));
  EXPECT_EQ(b.EffectiveTokens(), 120u);
}

TEST(BatchTest, MicroBatchTailGroupHandled) {
  const auto b = MakeBatch({5, 9, 7}, BatchPolicy::kMicroBatch, 2);
  // Sorted: 9 7 | 5.
  EXPECT_EQ(b.effective_lengths, (std::vector<std::size_t>{9, 9, 5}));
}

TEST(BatchTest, MicroBatchBetweenPadAndSorted) {
  std::vector<std::size_t> lens = {821, 400, 200, 150, 120, 100, 80, 60};
  const auto pad = MakeBatch(lens, BatchPolicy::kPadToMax);
  const auto micro = MakeBatch(lens, BatchPolicy::kMicroBatch, 2);
  const auto sorted = MakeBatch(lens, BatchPolicy::kSortedDescending);
  EXPECT_LT(micro.EffectiveTokens(), pad.EffectiveTokens());
  EXPECT_GT(micro.EffectiveTokens(), sorted.EffectiveTokens());
}

TEST(BatchTest, EmptyBatch) {
  const auto b = MakeBatch({}, BatchPolicy::kPadToMax);
  EXPECT_TRUE(b.effective_lengths.empty());
  EXPECT_DOUBLE_EQ(b.PaddingOverhead(), 1.0);
}

TEST(BatchTest, ZeroMicroBatchRejected) {
  EXPECT_THROW(MakeBatch({1, 2}, BatchPolicy::kMicroBatch, 0),
               std::invalid_argument);
}

TEST(BatchTest, SquadPaddingOverheadMatchesTable1) {
  // A large SQuAD-shaped batch padded to its max suffers close to the
  // dataset's Max/Avg = 4.6 overhead when the batch max hits the tail.
  LengthSampler sampler(Squad());
  Rng rng(3);
  auto lens = sampler.SampleMany(rng, 256);
  lens.push_back(821);  // ensure the tail is present
  const auto b = MakeBatch(lens, BatchPolicy::kPadToMax);
  EXPECT_GT(b.PaddingOverhead(), 3.0);
  EXPECT_LT(b.PaddingOverhead(), 6.0);
}

// ----------------------------------------------------------------- Zipf --

ZipfTraceConfig ZipfCfg(double skew, std::size_t population = 32,
                        std::size_t requests = 2000, std::uint64_t seed = 11) {
  ZipfTraceConfig cfg;
  cfg.arrival_rate_rps = 100;
  cfg.requests = requests;
  cfg.population = population;
  cfg.skew = skew;
  cfg.seed = seed;
  return cfg;
}

std::map<std::uint64_t, std::size_t> IdCounts(
    const std::vector<TimedRequest>& trace) {
  std::map<std::uint64_t, std::size_t> counts;
  for (const auto& r : trace) ++counts[r.id];
  return counts;
}

TEST(ZipfTraceTest, ShapeAndOrdering) {
  const auto trace = GenerateZipfTrace(ZipfCfg(1.0), Mrpc());
  ASSERT_EQ(trace.size(), 2000u);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GT(trace[i].arrival_s, trace[i - 1].arrival_s);
  }
  for (const auto& r : trace) {
    EXPECT_NE(r.id, kAnonymousId);
    EXPECT_GE(r.length, 1u);
  }
}

TEST(ZipfTraceTest, SeedReproducibleAndSeedSensitive) {
  const auto a = GenerateZipfTrace(ZipfCfg(1.0), Mrpc());
  const auto b = GenerateZipfTrace(ZipfCfg(1.0), Mrpc());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_s, b[i].arrival_s);
    EXPECT_EQ(a[i].length, b[i].length);
    EXPECT_EQ(a[i].id, b[i].id);
  }
  const auto c = GenerateZipfTrace(ZipfCfg(1.0, 32, 2000, 12), Mrpc());
  EXPECT_NE(a.front().id, c.front().id);  // ids are seed-scoped
}

TEST(ZipfTraceTest, SameIdMeansSameLength) {
  const auto trace = GenerateZipfTrace(ZipfCfg(1.2), Squad());
  std::map<std::uint64_t, std::size_t> len_of;
  for (const auto& r : trace) {
    const auto [it, inserted] = len_of.emplace(r.id, r.length);
    if (!inserted) {
      EXPECT_EQ(it->second, r.length);
    }
  }
  EXPECT_LE(len_of.size(), 32u);  // at most the population
  EXPECT_GT(len_of.size(), 1u);
}

TEST(ZipfTraceTest, SkewMonotonicallyConcentratesMass) {
  // The most popular identity's share must grow with the exponent.
  auto top_share = [](double skew) {
    const auto trace = GenerateZipfTrace(ZipfCfg(skew), Mrpc());
    std::size_t top = 0;
    for (const auto& [id, count] : IdCounts(trace)) top = std::max(top, count);
    return static_cast<double>(top) / static_cast<double>(trace.size());
  };
  const double s0 = top_share(0.0);
  const double s1 = top_share(0.8);
  const double s2 = top_share(1.6);
  EXPECT_LT(s0, s1);
  EXPECT_LT(s1, s2);
}

TEST(ZipfTraceTest, ZeroSkewDegeneratesToUniform) {
  // With s = 0 every identity is equally likely: over 2000 draws from a
  // population of 32 (expected 62.5 each), no identity should stray far.
  const auto trace = GenerateZipfTrace(ZipfCfg(0.0), Mrpc());
  const auto counts = IdCounts(trace);
  EXPECT_EQ(counts.size(), 32u);  // every identity appears
  const double expected =
      static_cast<double>(trace.size()) / static_cast<double>(counts.size());
  for (const auto& [id, count] : counts) {
    EXPECT_NEAR(static_cast<double>(count), expected, expected * 0.6)
        << "id " << id;
  }
}

TEST(ZipfTraceTest, DuplicateRateGrowsWithSkewAndShrinksWithPopulation) {
  const auto skewed = GenerateZipfTrace(ZipfCfg(1.4, 256, 512), Mrpc());
  const auto flat = GenerateZipfTrace(ZipfCfg(0.0, 256, 512), Mrpc());
  EXPECT_GT(TraceDuplicateRate(skewed), TraceDuplicateRate(flat));
  const auto small_pop = GenerateZipfTrace(ZipfCfg(0.0, 16, 512), Mrpc());
  EXPECT_GT(TraceDuplicateRate(small_pop), TraceDuplicateRate(flat));
}

TEST(ZipfTraceTest, DuplicateRateIgnoresAnonymousRequests) {
  PoissonTraceConfig cfg;
  cfg.requests = 64;
  const auto anon = GeneratePoissonTrace(cfg, Mrpc());
  EXPECT_DOUBLE_EQ(TraceDuplicateRate(anon), 0.0);
}

TEST(ZipfTraceTest, ValidationNamesTheField) {
  EXPECT_THROW(GenerateZipfTrace(ZipfCfg(-0.5), Mrpc()),
               std::invalid_argument);
  auto cfg = ZipfCfg(1.0);
  cfg.population = 0;
  EXPECT_THROW(GenerateZipfTrace(cfg, Mrpc()), std::invalid_argument);
  cfg = ZipfCfg(1.0);
  cfg.requests = 0;
  EXPECT_THROW(GenerateZipfTrace(cfg, Mrpc()), std::invalid_argument);
  cfg = ZipfCfg(1.0);
  cfg.arrival_rate_rps = 0;
  EXPECT_THROW(GenerateZipfTrace(cfg, Mrpc()), std::invalid_argument);
}

// ------------------------------------------------------------ Synthetic --

TEST(SyntheticTest, ShapesAndDeterminism) {
  AttentionWorkloadConfig cfg;
  cfg.head_dim = 32;
  Rng a(1), b(1);
  const auto p1 = GenerateAttentionProblem(a, 50, cfg);
  const auto p2 = GenerateAttentionProblem(b, 50, cfg);
  EXPECT_EQ(p1.q.rows(), 50u);
  EXPECT_EQ(p1.q.cols(), 32u);
  EXPECT_EQ(p1.q, p2.q);
  EXPECT_EQ(p1.k, p2.k);
  EXPECT_EQ(p1.v, p2.v);
}

TEST(SyntheticTest, ScoresAreConcentrated) {
  // The generator's purpose: most softmax mass in few keys.  Check that the
  // exact top-16 of 128 keys holds > 60% of the mass on average.
  Rng rng(2);
  AttentionWorkloadConfig cfg;
  const auto p = GenerateAttentionProblem(rng, 128, cfg);
  // Compute softmax mass of exact top 16 per row.
  double mass_top = 0;
  for (std::size_t i = 0; i < 128; ++i) {
    std::vector<double> probs(128);
    double mx = -1e30;
    for (std::size_t j = 0; j < 128; ++j) {
      double dot = 0;
      for (std::size_t c = 0; c < p.q.cols(); ++c) dot += p.q(i, c) * p.k(j, c);
      probs[j] = dot / std::sqrt(static_cast<double>(p.q.cols()));
      mx = std::max(mx, probs[j]);
    }
    double sum = 0;
    for (auto& x : probs) {
      x = std::exp(x - mx);
      sum += x;
    }
    std::sort(probs.begin(), probs.end(), std::greater<>());
    double top = 0;
    for (int t = 0; t < 16; ++t) top += probs[static_cast<std::size_t>(t)];
    mass_top += top / sum;
  }
  EXPECT_GT(mass_top / 128.0, 0.6);
}

TEST(SyntheticTest, SignalStrengthIncreasesConcentration) {
  auto mass_for = [](double signal) {
    Rng rng(4);
    AttentionWorkloadConfig cfg;
    cfg.signal = signal;
    const auto p = GenerateAttentionProblem(rng, 96, cfg);
    // top-8 exact mass, averaged
    double acc = 0;
    for (std::size_t i = 0; i < 96; ++i) {
      std::vector<double> s(96);
      for (std::size_t j = 0; j < 96; ++j) {
        double dot = 0;
        for (std::size_t c = 0; c < p.q.cols(); ++c) {
          dot += p.q(i, c) * p.k(j, c);
        }
        s[j] = dot / 8.0;
      }
      const double mx = *std::max_element(s.begin(), s.end());
      double sum = 0;
      for (auto& x : s) {
        x = std::exp(x - mx);
        sum += x;
      }
      std::sort(s.begin(), s.end(), std::greater<>());
      double top = 0;
      for (int t = 0; t < 8; ++t) top += s[static_cast<std::size_t>(t)];
      acc += top / sum;
    }
    return acc / 96.0;
  };
  EXPECT_GT(mass_for(2.0), mass_for(0.3));
}

TEST(SyntheticTest, DatasetWorkloadsDiffer) {
  const auto squad = WorkloadForDataset(Squad());
  const auto mrpc = WorkloadForDataset(Mrpc());
  EXPECT_NE(squad.signal, mrpc.signal);
  EXPECT_EQ(squad.head_dim, 64u);
}

TEST(SyntheticTest, EmbeddingShape) {
  Rng rng(5);
  const auto x = MakeInputEmbedding(rng, 7, 96);
  EXPECT_EQ(x.rows(), 7u);
  EXPECT_EQ(x.cols(), 96u);
}

// ------------------------------------------------ embedding normal stream --

bool SameBits(const MatrixF& a, const MatrixF& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.flat().data(), b.flat().data(),
                     a.size() * sizeof(float)) == 0;
}

// The embedding's stream contract, evaluated in double with libm: block b
// draws 16 words; word j gives u1 = ((w >> 40) + 1) 2^-24 and
// u2 = ((w >> 8) & 0xFFFFFF) 2^-24, and outputs 32b + j = r cos theta,
// 32b + 16 + j = r sin theta.
std::vector<double> ReferenceNormals(Rng rng, std::size_t n) {
  std::vector<double> z(n);
  for (std::size_t b = 0; 32 * b < n; ++b) {
    for (std::size_t j = 0; j < 16; ++j) {
      const std::uint64_t w = rng.NextU64();
      const double u1 = static_cast<double>((w >> 40) + 1) * 0x1p-24;
      const double u2 = static_cast<double>((w >> 8) & 0xFFFFFF) * 0x1p-24;
      const double r = std::sqrt(-2.0 * std::log(u1));
      const double theta = 2.0 * M_PI * u2;
      if (32 * b + j < n) z[32 * b + j] = r * std::cos(theta);
      if (32 * b + 16 + j < n) z[32 * b + 16 + j] = r * std::sin(theta);
    }
  }
  return z;
}

TEST(EmbeddingStreamTest, FollowsTheStreamContractOnEveryBody) {
  for (const ElementwiseIsa isa : ElementwiseIsas()) {
    for (std::size_t n : {1u, 15u, 16u, 17u, 31u, 32u, 33u, 70u, 4099u}) {
      Rng rng(40 + n);
      const std::vector<double> want = ReferenceNormals(rng, n);
      const MatrixF x = MakeInputEmbedding(rng, 1, n, isa);
      for (std::size_t i = 0; i < n; ++i) {
        // ln, sin and cos are float polynomials: a few ulps.
        ASSERT_NEAR(x.flat()[i], want[i], 1e-6)
            << ElementwiseIsaName(isa) << " n " << n << " output " << i;
      }
    }
  }
}

TEST(EmbeddingStreamTest, EveryBodyGivesThePortableBits) {
  if (ElementwiseIsas().size() == 1) {
    Rng rng(1);
    EXPECT_THROW(MakeInputEmbedding(rng, 1, 1, ElementwiseIsa::kAvx512f),
                 std::invalid_argument);
    GTEST_SKIP() << "no AVX-512F on this host: only the portable "
                    "elementwise body runs";
  }
  const ElementwiseIsa portable = ElementwiseIsa::kPortable;
  const ElementwiseIsa wide = ElementwiseIsas().back();
  for (std::size_t n = 1; n <= 70; ++n) {
    Rng a(n), b(n);
    EXPECT_TRUE(SameBits(MakeInputEmbedding(a, 1, n, portable),
                         MakeInputEmbedding(b, 1, n, wide)))
        << "n " << n;
  }
  Rng a(177), b(177);
  EXPECT_TRUE(SameBits(MakeInputEmbedding(a, 177, 96, portable),
                       MakeInputEmbedding(b, 177, 96, wide)));
}

TEST(EmbeddingStreamTest, DrawsSixteenWordsPerBlockOfThirtyTwo) {
  for (const ElementwiseIsa isa : ElementwiseIsas()) {
    for (std::size_t n : {0u, 1u, 31u, 32u, 33u, 64u, 65u, 177u * 96u}) {
      Rng rng(9), skip(9);
      MakeInputEmbedding(rng, 1, n, isa);
      for (std::size_t w = 0; w < 16 * ((n + 31) / 32); ++w) skip.NextU64();
      EXPECT_EQ(rng.NextU64(), skip.NextU64())
          << ElementwiseIsaName(isa) << " n " << n;
    }
  }
}

// The outputs j and 16 + j of the block holding word `word` of `seed`'s
// stream (r cos theta and r sin theta of that word), drawn on `isa`.
std::pair<float, float> PairOfWord(std::uint64_t seed, std::size_t word,
                                   ElementwiseIsa isa) {
  Rng rng(seed);
  for (std::size_t w = 0; w < word / 16 * 16; ++w) rng.NextU64();
  const MatrixF x = MakeInputEmbedding(rng, 1, 32, isa);
  return {x.flat()[word % 16], x.flat()[16 + word % 16]};
}

// Bits 40..63 of word `word` of `seed`'s stream.
std::uint64_t HighBitsOfWord(std::uint64_t seed, std::size_t word) {
  Rng rng(seed);
  for (std::size_t w = 0; w < word; ++w) rng.NextU64();
  return rng.NextU64() >> 40;
}

TEST(EmbeddingStreamTest, OutputsAreFiniteAndBounded) {
  // u1 >= 2^-24 caps r = sqrt(-2 ln u1) at sqrt(48 ln 2); the float
  // result may round one ulp past the exact bound.
  const double exact = std::sqrt(48.0 * std::log(2.0));
  const float bound = std::nextafter(static_cast<float>(exact), 10.f);
  for (const ElementwiseIsa isa : ElementwiseIsas()) {
    Rng rng(11);
    const MatrixF x = MakeInputEmbedding(rng, 512, 512, isa);
    for (const float z : x.flat()) {
      ASSERT_TRUE(std::isfinite(z));
      ASSERT_LE(std::fabs(z), bound);
    }
  }
  // Word 643 of seed 2818's stream is the first with bits 40..63 all
  // clear: u1 = 2^-24, the largest radius.
  ASSERT_EQ(HighBitsOfWord(2818, 643), 0u);
  for (const ElementwiseIsa isa : ElementwiseIsas()) {
    const auto [c, s] = PairOfWord(2818, 643, isa);
    EXPECT_LE(std::fabs(c), bound) << ElementwiseIsaName(isa);
    EXPECT_LE(std::fabs(s), bound) << ElementwiseIsaName(isa);
    EXPECT_NEAR(std::hypot(c, s), exact, 1e-5) << ElementwiseIsaName(isa);
  }
}

TEST(EmbeddingStreamTest, UnitU1GivesSignedZeros) {
  // Word 6257 of seed 987's stream is the first with bits 40..63 all set:
  // u1 = 1 and r = 0.
  ASSERT_EQ(HighBitsOfWord(987, 6257), 0xFFFFFFu);
  for (const ElementwiseIsa isa : ElementwiseIsas()) {
    const auto [c, s] = PairOfWord(987, 6257, isa);
    EXPECT_EQ(c, 0.f) << ElementwiseIsaName(isa);
    EXPECT_EQ(s, 0.f) << ElementwiseIsaName(isa);
  }
}

TEST(EmbeddingStreamTest, MomentsMatchTheStandardNormal) {
  // 2^20 samples: the standard errors of the mean, variance and kurtosis
  // are ~0.001, ~0.0014 and ~0.0048; the tolerances are about 5 of them.
  Rng rng(2026);
  const MatrixF x = MakeInputEmbedding(rng, 1024, 1024);
  double m1 = 0, m2 = 0, m4 = 0;
  for (const float z : x.flat()) m1 += z;
  m1 /= static_cast<double>(x.size());
  for (const float z : x.flat()) {
    const double d = z - m1;
    m2 += d * d;
    m4 += d * d * d * d;
  }
  m2 /= static_cast<double>(x.size());
  m4 /= static_cast<double>(x.size());
  EXPECT_NEAR(m1, 0.0, 0.005);
  EXPECT_NEAR(m2, 1.0, 0.007);
  EXPECT_NEAR(m4 / (m2 * m2), 3.0, 0.025);
}

// --------------------------------------------------------------- TraceIo --

TEST(TraceIoTest, JsonRoundTripIsBitExact) {
  ZipfTraceConfig cfg;
  cfg.requests = 64;
  cfg.population = 8;
  cfg.seed = 3;
  auto trace = GenerateZipfTrace(cfg, Mrpc());
  // Cover the anonymous-id edge too: ~0ull must survive the trip (it
  // cannot ride a JSON double, which is why ids are hex strings).
  trace.push_back({trace.back().arrival_s + 0.1 / 3.0, 77, kAnonymousId});

  const std::string json = TraceToJson(trace);
  const auto back = TraceFromJson(json);
  ASSERT_EQ(back.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(back[i].arrival_s, trace[i].arrival_s) << "record " << i;
    EXPECT_EQ(back[i].length, trace[i].length) << "record " << i;
    EXPECT_EQ(back[i].id, trace[i].id) << "record " << i;
  }
  // Re-serializing the parse reproduces the document byte for byte.
  EXPECT_EQ(TraceToJson(back), json);
}

TEST(TraceIoTest, FileCaptureAndLoad) {
  const std::string path = ::testing::TempDir() + "trace_io_test.lattetrace";
  PoissonTraceConfig cfg;
  cfg.arrival_rate_rps = 150;
  cfg.requests = 32;
  cfg.seed = 5;
  const auto trace = GeneratePoissonTrace(cfg, Mrpc());

  ASSERT_TRUE(CaptureTrace(trace, path));
  const auto loaded = LoadTrace(path);
  EXPECT_EQ(TraceToJson(loaded), TraceToJson(trace));

  std::vector<TimedRequest> out;
  EXPECT_TRUE(TryLoadTrace(path, out));
  EXPECT_EQ(out.size(), trace.size());
  // An absent file is the soft bench fallback, not an error.
  EXPECT_FALSE(TryLoadTrace(path + ".missing", out));
  std::remove(path.c_str());
}

TEST(TraceIoTest, RejectsMalformedCaptures) {
  EXPECT_THROW(TraceFromJson("{}"), std::invalid_argument);
  EXPECT_THROW(TraceFromJson(R"({"magic":"other","version":1,"requests":0,)"
                             R"("records":[]})"),
               std::invalid_argument);
  EXPECT_THROW(TraceFromJson(R"({"magic":"lattetrace","version":99,)"
                             R"("requests":0,"records":[]})"),
               std::invalid_argument);
  // Declared count must match the records actually present.
  EXPECT_THROW(TraceFromJson(R"({"magic":"lattetrace","version":1,)"
                             R"("requests":2,"records":[]})"),
               std::invalid_argument);
  // Ids are "0x..." hex strings; a bare number is a corrupt capture.
  EXPECT_THROW(
      TraceFromJson(R"({"magic":"lattetrace","version":1,"requests":1,)"
                    R"("records":[{"arrival_s":0,"length":1,"id":"42"}]})"),
      std::invalid_argument);
  // Counts are integers: a fractional version or length is not truncated,
  // and one past what a double holds exactly is not cast.
  EXPECT_THROW(TraceFromJson(R"({"magic":"lattetrace","version":1.9,)"
                             R"("requests":0,"records":[]})"),
               std::invalid_argument);
  for (const char* length : {"8.7", "1e30"}) {
    const std::string json =
        std::string(R"({"magic":"lattetrace","version":1,"requests":1,)"
                    R"("records":[{"arrival_s":0,"length":)") +
        length + R"(,"id":"0x2a"}]})";
    try {
      TraceFromJson(json);
      ADD_FAILURE() << "accepted length " << length;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("length"), std::string::npos)
          << e.what();
    }
  }
  // An arrival past what a double holds parses as +-Inf; replaying it
  // would stall the serving loop, so the loader names it.
  for (const char* arrival : {"1e400", "-1e400"}) {
    const std::string json =
        std::string(R"({"magic":"lattetrace","version":1,"requests":1,)"
                    R"("records":[{"arrival_s":)") +
        arrival + R"(,"length":1,"id":"0x2a"}]})";
    try {
      TraceFromJson(json);
      ADD_FAILURE() << "accepted arrival_s " << arrival;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("arrival_s"), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace latte
