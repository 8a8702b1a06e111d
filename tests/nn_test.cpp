// Tests for the transformer reference operators and the encoder layer.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "core/sparse_attention.hpp"
#include "nn/attention.hpp"
#include "nn/encoder.hpp"
#include "nn/linear.hpp"
#include "nn/ops.hpp"
#include "nn/qlinear.hpp"
#include "runtime/workspace.hpp"
#include "tensor/matmul.hpp"
#include "tensor/rng.hpp"

namespace latte {
namespace {

// ----------------------------------------------------------------- Ops ---

TEST(SoftmaxTest, RowsSumToOne) {
  Rng rng(1);
  auto m = rng.NormalMatrix(6, 20, 0.0, 3.0);
  SoftmaxRowsInPlace(m);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    double s = 0;
    for (float x : m.row(i)) {
      EXPECT_GE(x, 0.f);
      s += x;
    }
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(SoftmaxTest, StableUnderLargeValues) {
  auto m = MatrixF::FromFlat(1, 3, {1000.f, 1001.f, 999.f});
  SoftmaxRowsInPlace(m);
  EXPECT_TRUE(std::isfinite(m(0, 0)));
  EXPECT_GT(m(0, 1), m(0, 0));
  EXPECT_GT(m(0, 0), m(0, 2));
}

TEST(SoftmaxTest, UniformInputGivesUniformOutput) {
  MatrixF m(1, 5, 2.f);
  SoftmaxRowsInPlace(m);
  for (float x : m.row(0)) EXPECT_NEAR(x, 0.2f, 1e-6f);
}

TEST(SoftmaxTest, PreservesOrder) {
  auto m = MatrixF::FromFlat(1, 4, {0.1f, 3.f, -2.f, 1.f});
  SoftmaxRowsInPlace(m);
  EXPECT_GT(m(0, 1), m(0, 3));
  EXPECT_GT(m(0, 3), m(0, 0));
  EXPECT_GT(m(0, 0), m(0, 2));
}

TEST(GeluTest, KnownValues) {
  EXPECT_NEAR(Gelu(0.f), 0.f, 1e-6f);
  EXPECT_NEAR(Gelu(10.f), 10.f, 1e-3f);   // identity for large positive
  EXPECT_NEAR(Gelu(-10.f), 0.f, 1e-3f);   // kills large negative
  EXPECT_NEAR(Gelu(1.f), 0.8412f, 1e-3f); // published value
}

TEST(GeluTest, ShapeHasSingleMinimumNearMinusThreeQuarters) {
  // GELU is not monotone: it dips to a single minimum around x ~ -0.75 and
  // increases on either side of it.
  float prev = Gelu(-0.6f);
  for (float x = -0.5f; x < 6.f; x += 0.1f) {  // increasing right of the dip
    const float cur = Gelu(x);
    EXPECT_GE(cur, prev - 1e-6f) << "x=" << x;
    prev = cur;
  }
  // The minimum value is ~ -0.17 and lies in [-1.2, -0.4].
  float best_x = 0, best = 1e9f;
  for (float x = -3.f; x < 1.f; x += 0.01f) {
    if (Gelu(x) < best) {
      best = Gelu(x);
      best_x = x;
    }
  }
  EXPECT_NEAR(best, -0.17f, 0.01f);
  EXPECT_GT(best_x, -1.2f);
  EXPECT_LT(best_x, -0.4f);
}

// BERT's tanh-form GELU in double precision, the reference the float
// evaluation is held to.
double GeluDouble(double x) {
  const double c = std::sqrt(2.0 / std::acos(-1.0));
  return 0.5 * x * (1.0 + std::tanh(c * (x + 0.044715 * x * x * x)));
}

bool SameBits(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

TEST(GeluTest, WithinOneMillionthOfDoublePrecisionOnSweepAndDraws) {
  double worst = 0;
  float worst_x = 0;
  auto check = [&](float x) {
    const double err = std::fabs(Gelu(x) - GeluDouble(x));
    if (err > worst) {
      worst = err;
      worst_x = x;
    }
  };
  for (int i = -12000; i <= 12000; ++i) check(static_cast<float>(i) * 1e-3f);
  Rng rng(19);
  MatrixF draws = rng.NormalMatrix(1000, 1000, 0.0, 4.0);
  for (float x : draws.flat()) check(x);
  EXPECT_LE(worst, 1e-6) << "at x = " << worst_x;

  // The bulk path is held to the same bound on the same draws.
  const MatrixF inputs = draws;
  GeluInPlace(draws);
  double bulk_worst = 0;
  for (std::size_t i = 0; i < draws.size(); ++i) {
    const double want = GeluDouble(inputs.flat()[i]);
    bulk_worst = std::max(bulk_worst, std::fabs(draws.flat()[i] - want));
  }
  EXPECT_LE(bulk_worst, 1e-6);
}

TEST(GeluTest, ScalarEqualsBulkBitForBitAtEveryTailLength) {
  Rng rng(20);
  std::vector<MatrixF> cases;
  for (std::size_t n = 1; n <= 9; ++n) {
    cases.push_back(rng.NormalMatrix(1, n, 0.0, 3.0));
  }
  cases.push_back(rng.NormalMatrix(53, 3072, 0.0, 3.0));
  for (const MatrixF& x : cases) {
    MatrixF y = x;
    GeluInPlace(y);
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_TRUE(SameBits(y.flat()[i], Gelu(x.flat()[i])))
          << x.rows() << "x" << x.cols() << " element " << i;
    }
  }
}

TEST(GeluTest, SpecialValues) {
  const float inf = std::numeric_limits<float>::infinity();
  const float big = std::numeric_limits<float>::max();
  MatrixF m = MatrixF::FromFlat(
      1, 9, {-inf, inf, std::numeric_limits<float>::quiet_NaN(), -0.f, 0.f,
             -8e12f, 8e12f, -big, big});
  const MatrixF in = m;
  GeluInPlace(m);
  for (std::size_t i = 0; i < in.size(); ++i) {
    ASSERT_TRUE(SameBits(m.flat()[i], Gelu(in.flat()[i]))) << in.flat()[i];
  }
  EXPECT_EQ(Gelu(-inf), 0.f);
  EXPECT_TRUE(std::signbit(Gelu(-inf)));  // -0, not NaN
  EXPECT_EQ(Gelu(inf), inf);
  EXPECT_TRUE(std::isnan(Gelu(std::numeric_limits<float>::quiet_NaN())));
  EXPECT_TRUE(SameBits(Gelu(-0.f), -0.f));
  EXPECT_TRUE(SameBits(Gelu(0.f), 0.f));
  // Past |x| ~ 7e12, x^3 overflows; the result stays finite.
  for (float x : {-8e12f, 8e12f, -big, big}) {
    EXPECT_TRUE(std::isfinite(Gelu(x))) << x;
  }
  EXPECT_EQ(Gelu(8e12f), 8e12f);
  EXPECT_EQ(Gelu(big), big);
  EXPECT_EQ(Gelu(-8e12f), 0.f);
  EXPECT_EQ(Gelu(-big), 0.f);
}

TEST(LayerNormTest, ZeroMeanUnitVarWithIdentityAffine) {
  Rng rng(2);
  auto m = rng.NormalMatrix(4, 32, 5.0, 3.0);
  std::vector<float> gamma(32, 1.f), beta(32, 0.f);
  LayerNormInPlace(m, gamma, beta);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    double mean = 0, var = 0;
    for (float x : m.row(i)) mean += x;
    mean /= 32;
    for (float x : m.row(i)) var += (x - mean) * (x - mean);
    var /= 32;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(LayerNormTest, AffineApplied) {
  MatrixF m(1, 4);
  m(0, 0) = -1;
  m(0, 1) = 0;
  m(0, 2) = 1;
  m(0, 3) = 2;
  std::vector<float> gamma(4, 2.f), beta(4, 10.f);
  LayerNormInPlace(m, gamma, beta);
  double mean = 0;
  for (float x : m.row(0)) mean += x;
  EXPECT_NEAR(mean / 4, 10.0, 1e-4);  // beta shifts the mean
}

TEST(LayerNormTest, MismatchedAffineThrows) {
  MatrixF m(1, 4, 1.f);
  std::vector<float> g(3, 1.f), b(4, 0.f);
  EXPECT_THROW(LayerNormInPlace(m, g, b), std::invalid_argument);
}

// -------------------------------------------------------------- Linear ---

TEST(LinearTest, ForwardMatchesManualGemm) {
  Rng rng(3);
  const Linear l = MakeLinear(rng, 8, 4);
  const auto x = rng.NormalMatrix(5, 8, 0.0, 1.0);
  const auto y = l.Forward(x);
  ASSERT_EQ(y.rows(), 5u);
  ASSERT_EQ(y.cols(), 4u);
  MatrixF ref = MatMul(x, l.weight);
  AddBiasInPlace(ref, l.bias);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_FLOAT_EQ(y.flat()[i], ref.flat()[i]);
  }
}

TEST(LinearTest, NoBiasVariant) {
  Rng rng(4);
  const Linear l = MakeLinear(rng, 4, 4, /*with_bias=*/false);
  EXPECT_TRUE(l.bias.empty());
  MatrixF zero(2, 4);
  const auto y = l.Forward(zero);
  for (float v : y.flat()) EXPECT_EQ(v, 0.f);
}

TEST(LinearTest, XavierScaleBounded) {
  Rng rng(5);
  const Linear l = MakeLinear(rng, 100, 100);
  const double limit = std::sqrt(6.0 / 200.0);
  for (float w : l.weight.flat()) {
    EXPECT_LE(std::fabs(w), limit + 1e-6);
  }
}

// ----------------------------------------------------------- Attention ---

TEST(AttentionTest, RowsAreConvexCombinationsOfV) {
  Rng rng(6);
  const auto q = rng.NormalMatrix(10, 16, 0.0, 1.0);
  const auto k = rng.NormalMatrix(10, 16, 0.0, 1.0);
  const auto v = rng.NormalMatrix(10, 16, 0.0, 1.0);
  Workspace ws;
  const auto out = DenseAttention(q, k, v, ws);
  for (std::size_t c = 0; c < 16; ++c) {
    float lo = v(0, c), hi = v(0, c);
    for (std::size_t j = 1; j < 10; ++j) {
      lo = std::min(lo, v(j, c));
      hi = std::max(hi, v(j, c));
    }
    for (std::size_t i = 0; i < 10; ++i) {
      EXPECT_GE(out(i, c), lo - 1e-5f);
      EXPECT_LE(out(i, c), hi + 1e-5f);
    }
  }
}

TEST(AttentionTest, SingleKeyReturnsItsValue) {
  Rng rng(7);
  const auto q = rng.NormalMatrix(3, 8, 0.0, 1.0);
  const auto k = rng.NormalMatrix(1, 8, 0.0, 1.0);
  const auto v = rng.NormalMatrix(1, 8, 0.0, 1.0);
  Workspace ws;
  const auto out = DenseAttention(q, k, v, ws);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t c = 0; c < 8; ++c) {
      EXPECT_NEAR(out(i, c), v(0, c), 1e-5f);
    }
  }
}

TEST(AttentionTest, SplitConcatRoundTrip) {
  Rng rng(8);
  const auto x = rng.NormalMatrix(6, 24, 0.0, 1.0);
  const auto heads = SplitHeads(x, 4);
  ASSERT_EQ(heads.size(), 4u);
  EXPECT_EQ(heads[0].cols(), 6u);
  EXPECT_EQ(ConcatHeads(heads), x);
}

TEST(AttentionTest, SplitHeadsRejectsNonDivisible) {
  MatrixF x(2, 10);
  EXPECT_THROW(SplitHeads(x, 3), std::invalid_argument);
  EXPECT_THROW(SplitHeads(x, 0), std::invalid_argument);
}

// ------------------------------------------------------------- Encoder ---

TEST(EncoderTest, OutputShapeMatchesInput) {
  Rng rng(9);
  EncoderConfig cfg;
  cfg.hidden = 32;
  cfg.heads = 4;
  const auto w = MakeEncoderWeights(rng, cfg);
  const auto x = rng.NormalMatrix(7, 32, 0.0, 1.0);
  Workspace ws;
  const auto y = EncoderForward(x, w, cfg, DenseAttention, ws);
  EXPECT_EQ(y.rows(), 7u);
  EXPECT_EQ(y.cols(), 32u);
}

TEST(EncoderTest, OutputIsLayerNormalized) {
  Rng rng(10);
  EncoderConfig cfg;
  cfg.hidden = 64;
  cfg.heads = 8;
  const auto w = MakeEncoderWeights(rng, cfg);
  const auto x = rng.NormalMatrix(5, 64, 0.0, 1.0);
  Workspace ws;
  const auto y = EncoderForward(x, w, cfg, DenseAttention, ws);
  for (std::size_t i = 0; i < y.rows(); ++i) {
    double mean = 0;
    for (float v : y.row(i)) mean += v;
    EXPECT_NEAR(mean / 64.0, 0.0, 1e-3);
  }
}

TEST(EncoderTest, DeterministicGivenSeed) {
  EncoderConfig cfg;
  cfg.hidden = 16;
  cfg.heads = 2;
  Rng r1(11), r2(11);
  const auto w1 = MakeEncoderWeights(r1, cfg);
  const auto w2 = MakeEncoderWeights(r2, cfg);
  const auto x1 = r1.NormalMatrix(3, 16, 0.0, 1.0);
  const auto x2 = r2.NormalMatrix(3, 16, 0.0, 1.0);
  Workspace ws;
  EXPECT_EQ(EncoderForward(x1, w1, cfg, DenseAttention, ws),
            EncoderForward(x2, w2, cfg, DenseAttention, ws));
}

TEST(EncoderTest, RejectsBadConfig) {
  Rng rng(12);
  EncoderConfig cfg;
  cfg.hidden = 10;
  cfg.heads = 3;  // does not divide
  EXPECT_THROW(MakeEncoderWeights(rng, cfg), std::invalid_argument);
}

TEST(EncoderTest, RejectsWrongInputWidth) {
  Rng rng(13);
  EncoderConfig cfg;
  cfg.hidden = 16;
  cfg.heads = 2;
  const auto w = MakeEncoderWeights(rng, cfg);
  MatrixF x(3, 8);
  Workspace ws;
  EXPECT_THROW(EncoderForward(x, w, cfg, DenseAttention, ws),
               std::invalid_argument);
}

TEST(EncoderTest, CustomAttentionFnIsUsed) {
  // An attention fn that returns zeros must change the output.
  Rng rng(14);
  EncoderConfig cfg;
  cfg.hidden = 16;
  cfg.heads = 2;
  const auto w = MakeEncoderWeights(rng, cfg);
  const auto x = rng.NormalMatrix(4, 16, 0.0, 1.0);
  const AttentionFn zero_fn = [](const MatrixF& q, const MatrixF&,
                                 const MatrixF& v, Workspace&) {
    return MatrixF(q.rows(), v.cols());
  };
  Workspace ws;
  EXPECT_NE(EncoderForward(x, w, cfg, zero_fn, ws),
            EncoderForward(x, w, cfg, DenseAttention, ws));
}

TEST(EncoderTest, WarmWorkspaceMatchesFreshWorkspace) {
  // The layer's intermediates live in the Workspace's reserved slots: a
  // Workspace already used for a longer and then a shorter sequence must
  // give the bits a fresh one gives, on both weight sets.
  Rng rng(16);
  EncoderConfig cfg;
  cfg.hidden = 32;
  cfg.heads = 4;
  const auto w = MakeEncoderWeights(rng, cfg);
  const auto qw = QuantizedEncoderWeights::FromFloat(w);
  const auto longer = rng.NormalMatrix(21, 32, 0.0, 1.0);
  const auto shorter = rng.NormalMatrix(4, 32, 0.0, 1.0);
  const auto x = rng.NormalMatrix(9, 32, 0.0, 1.0);
  SparseAttentionConfig sa;
  sa.top_k = 4;
  const AttentionFn sparse = MakeSparseAttentionFn(sa);

  Workspace fresh_f, fresh_q;
  const MatrixF want_f = EncoderForward(x, w, cfg, DenseAttention, fresh_f);
  const MatrixF want_q = EncoderForward(x, qw, cfg, sparse, fresh_q);

  Workspace warm;
  EncoderForward(longer, w, cfg, DenseAttention, warm);
  EncoderForward(longer, qw, cfg, sparse, warm);
  EncoderForward(shorter, w, cfg, DenseAttention, warm);
  EncoderForward(shorter, qw, cfg, sparse, warm);
  EXPECT_EQ(EncoderForward(x, w, cfg, DenseAttention, warm), want_f);
  EXPECT_EQ(EncoderForward(x, qw, cfg, sparse, warm), want_q);
}

TEST(EncoderTest, WorkspaceCapacityStaysFlatAcrossBatches) {
  Rng rng(17);
  EncoderConfig cfg;
  cfg.hidden = 32;
  cfg.heads = 4;
  const auto w = MakeEncoderWeights(rng, cfg);
  std::vector<MatrixF> batch;
  for (std::size_t n : {13u, 5u, 9u}) {
    batch.push_back(rng.NormalMatrix(n, 32, 0.0, 1.0));
  }
  Workspace ws;
  for (const auto& x : batch) EncoderForward(x, w, cfg, DenseAttention, ws);
  // The FFN activation slot holds the longest sequence's n x ffn.
  EXPECT_GE(ws.Float(wslots::kLayerFfn, 0, 0).capacity(), 13 * cfg.ffn());
  const std::size_t bytes = ws.CapacityBytes();
  for (int round = 0; round < 3; ++round) {
    for (const auto& x : batch) EncoderForward(x, w, cfg, DenseAttention, ws);
    EXPECT_EQ(ws.CapacityBytes(), bytes) << "round " << round;
  }
}

TEST(EncoderTest, FfnDefaultsToFourTimesHidden) {
  EncoderConfig cfg;
  cfg.hidden = 96;
  EXPECT_EQ(cfg.ffn(), 384u);
  cfg.ffn_dim = 100;
  EXPECT_EQ(cfg.ffn(), 100u);
}

}  // namespace
}  // namespace latte
