// Unit + property tests for the tensor substrate: Matrix, Rng, quantizer,
// LUT multiplier, dense linear algebra.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "tensor/lut_multiply.hpp"
#include "tensor/matmul.hpp"
#include "tensor/matrix.hpp"
#include "tensor/quantize.hpp"
#include "tensor/rng.hpp"

namespace latte {
namespace {

// ---------------------------------------------------------------- Matrix --

TEST(MatrixTest, DefaultIsEmpty) {
  MatrixF m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(MatrixTest, ConstructedZeroInitialized) {
  MatrixF m(3, 4);
  EXPECT_EQ(m.size(), 12u);
  for (float x : m.flat()) EXPECT_EQ(x, 0.f);
}

TEST(MatrixTest, FillConstructor) {
  MatrixF m(2, 2, 7.f);
  for (float x : m.flat()) EXPECT_EQ(x, 7.f);
}

TEST(MatrixTest, RowMajorIndexing) {
  MatrixF m(2, 3);
  m(0, 0) = 1.f;
  m(0, 2) = 3.f;
  m(1, 0) = 4.f;
  EXPECT_EQ(m.flat()[0], 1.f);
  EXPECT_EQ(m.flat()[2], 3.f);
  EXPECT_EQ(m.flat()[3], 4.f);
}

TEST(MatrixTest, RowSpanAliasesStorage) {
  MatrixF m(2, 3);
  auto r1 = m.row(1);
  r1[2] = 9.f;
  EXPECT_EQ(m(1, 2), 9.f);
}

TEST(MatrixTest, FromFlatRoundTrip) {
  auto m = MatrixF::FromFlat(2, 2, {1.f, 2.f, 3.f, 4.f});
  EXPECT_EQ(m(1, 0), 3.f);
}

TEST(MatrixTest, FromFlatRejectsSizeMismatch) {
  EXPECT_THROW(MatrixF::FromFlat(2, 2, {1.f, 2.f, 3.f}),
               std::invalid_argument);
}

TEST(MatrixTest, EqualityIsValueBased) {
  MatrixF a(2, 2, 1.f);
  MatrixF b(2, 2, 1.f);
  EXPECT_EQ(a, b);
  b(0, 0) = 2.f;
  EXPECT_NE(a, b);
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= (a.NextU64() != b.NextU64());
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.NextUniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.NextUniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, NormalMomentsApproximatelyStandard) {
  Rng rng(123);
  const int kN = 20000;
  double sum = 0, sum2 = 0;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.NextNormal();
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / kN;
  const double var = sum2 / kN - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, NextIndexWithinBound) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextIndex(17), 17u);
  }
}

TEST(RngTest, NormalMatrixShape) {
  Rng rng(5);
  const auto m = rng.NormalMatrix(4, 6, 0.0, 1.0);
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.cols(), 6u);
}

// ------------------------------------------------------------- Quantizer --

TEST(QuantizeTest, ScalingFactorIsMaxAbs) {
  auto m = MatrixF::FromFlat(1, 4, {0.5f, -2.5f, 1.0f, 0.f});
  EXPECT_FLOAT_EQ(ScalingFactor(m), 2.5f);
}

TEST(QuantizeTest, MaxCodeValues) {
  EXPECT_EQ(MaxCode(1), 1);
  EXPECT_EQ(MaxCode(4), 7);
  EXPECT_EQ(MaxCode(8), 127);
}

TEST(QuantizeTest, OneBitIsSignFunction) {
  auto m = MatrixF::FromFlat(1, 4, {0.5f, -2.5f, 0.0f, -0.1f});
  const auto q = Quantize(m, 1);
  EXPECT_EQ(q.codes(0, 0), 1);
  EXPECT_EQ(q.codes(0, 1), -1);
  EXPECT_EQ(q.codes(0, 2), 1);  // zero maps to +1 (sign bit)
  EXPECT_EQ(q.codes(0, 3), -1);
}

TEST(QuantizeTest, FourBitPaperExample) {
  // Fig 3: scaling factor of K is 0.77; elements multiply by 7/0.77.
  // Value 0.77 -> code 7; value -0.33 -> round(-3.0) = -3.
  auto m = MatrixF::FromFlat(1, 2, {0.77f, -0.33f});
  const auto q = Quantize(m, 4);
  EXPECT_EQ(q.codes(0, 0), 7);
  EXPECT_EQ(q.codes(0, 1), -3);
}

TEST(QuantizeTest, NonFiniteElementThrowsNamedError) {
  // Unchecked, a NaN gets an arbitrary code (the max-abs scan skips it)
  // and an Inf zeroes every other code.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (float bad : {nan, inf, -inf}) {
    auto m = MatrixF::FromFlat(2, 3, {0.5f, -1.f, 2.f, 0.f, 0.25f, -3.f});
    m(1, 1) = bad;
    for (int bits : {1, 4, 8}) {
      try {
        Quantize(m, bits);
        ADD_FAILURE() << "no throw for " << bad << " at " << bits << " bits";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("non-finite element at flat "
                                             "index 4"),
                  std::string::npos)
            << e.what();
      }
      EXPECT_THROW(QuantizeWithScale(m, bits, 3.f), std::invalid_argument);
    }
  }
}

TEST(QuantizeTest, CodesWithinRange) {
  Rng rng(3);
  const auto m = rng.NormalMatrix(16, 16, 0.0, 2.0);
  for (int bits : {1, 4, 8}) {
    const auto q = Quantize(m, bits);
    for (auto c : q.codes.flat()) {
      EXPECT_LE(std::abs(static_cast<int>(c)), MaxCode(bits));
    }
  }
}

TEST(QuantizeTest, DequantizeRoundTripErrorBounded) {
  Rng rng(4);
  const auto m = rng.NormalMatrix(8, 8, 0.0, 1.0);
  const auto q = Quantize(m, 8);
  const auto back = Dequantize(q);
  // 8-bit symmetric quantization: error <= scale/2 per element.
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_NEAR(back.flat()[i], m.flat()[i], q.scale * 0.5f + 1e-6f);
  }
}

TEST(QuantizeTest, MonotonePreservesOrderOfProjections) {
  // Quantization is monotone, so the order of individual values survives.
  Rng rng(11);
  const auto m = rng.NormalMatrix(1, 64, 0.0, 1.0);
  const auto q = Quantize(m, 4);
  for (std::size_t a = 0; a < 64; ++a) {
    for (std::size_t b = 0; b < 64; ++b) {
      if (m(0, a) > m(0, b)) {
        EXPECT_GE(q.codes(0, a), q.codes(0, b));
      }
    }
  }
}

TEST(QuantizeTest, RejectsUnsupportedBits) {
  MatrixF m(1, 1, 1.f);
  EXPECT_THROW(Quantize(m, 2), std::invalid_argument);
  EXPECT_THROW(Quantize(m, 16), std::invalid_argument);
}

TEST(QuantizeTest, ZeroMatrixQuantizesToZero) {
  MatrixF m(3, 3);
  const auto q = Quantize(m, 4);
  for (auto c : q.codes.flat()) EXPECT_EQ(c, 0);
}

TEST(QuantizeTest, SubnormalScaleKeepsZerosAndSigns) {
  // max |x| = 1e-40 is subnormal, so 127 / M overflows to +inf: 0 * inf
  // used to be NaN and every code came out -127.
  const auto m = MatrixF::FromFlat(1, 3, {0.f, 1e-40f, -1e-40f});
  for (int bits : {4, 8}) {
    const auto q = Quantize(m, bits);
    const std::int8_t qmax = static_cast<std::int8_t>(MaxCode(bits));
    EXPECT_EQ(q.codes(0, 0), 0) << bits;
    EXPECT_EQ(q.codes(0, 1), qmax) << bits;
    EXPECT_EQ(q.codes(0, 2), -qmax) << bits;
    EXPECT_EQ(QuantizeValue(-1e-40f, bits, 1e-40f), -qmax) << bits;
    EXPECT_EQ(QuantizeValue(0.f, bits, 1e-40f), 0) << bits;
  }
}

TEST(QuantizeTest, HugeScaledValuesSaturateWithTheirSign) {
  // (127 / 1e-20) * 1e10 is about 1.3e32, past where lround overflows
  // (2^63): both codes used to come out -127 (-7 at 4 bits).
  const auto m = MatrixF::FromFlat(1, 2, {1e10f, -1e10f});
  for (int bits : {4, 8}) {
    const auto q = QuantizeWithScale(m, bits, 1e-20f);
    EXPECT_EQ(q.codes(0, 0), MaxCode(bits)) << bits;
    EXPECT_EQ(q.codes(0, 1), -MaxCode(bits)) << bits;
  }
}

TEST(QuantizeTest, IntoAReusedBufferMatchesQuantize) {
  // QuantizeInto overwrites every code of a buffer left holding another
  // matrix's codes, also where an all-zero input writes nothing but zeros.
  Rng rng(31);
  std::vector<MatrixF> inputs;
  inputs.push_back(rng.NormalMatrix(7, 9, 0.0, 2.0));
  inputs.push_back(MatrixF(5, 6));  // all zeros: M = 0
  inputs.push_back(rng.NormalMatrix(3, 4, 0.0, 1.0));
  for (int bits : {1, 4, 8}) {
    MatrixI8 codes(8, 10, std::int8_t{-3});
    for (const MatrixF& m : inputs) {
      const QuantizedMatrix want = Quantize(m, bits);
      EXPECT_EQ(QuantizeInto(m, bits, codes), want.scale) << bits;
      EXPECT_EQ(codes, want.codes) << bits;
    }
  }
}

TEST(QuantizeTest, RoundingMatchesClampedLround) {
  // With M = qmax the scale factor qmax / M is exactly 1, so every code is
  // the rounding of the value itself; it must equal clamp(lround(s)).
  for (int bits : {4, 8}) {
    const int qmax = MaxCode(bits);
    const float M = static_cast<float>(qmax);
    std::vector<float> values = {0.f, -0.f};
    for (int k = -(qmax + 2); k <= qmax + 2; ++k) {
      const float half = static_cast<float>(k) + 0.5f;
      values.push_back(static_cast<float>(k));
      values.push_back(half);
      values.push_back(std::nextafter(half, -1e30f));
      values.push_back(std::nextafter(half, 1e30f));
    }
    // A million seeded values: half uniform around the code range, half
    // random bit patterns, which cover every exponent (lround itself is
    // only defined below 2^63).
    Rng rng(2024);
    for (int i = 0; i < 500000; ++i) {
      values.push_back(
          static_cast<float>(rng.NextUniform(-qmax - 3, qmax + 3)));
    }
    const std::size_t target = values.size() + 500000;
    while (values.size() < target) {
      const auto bits32 = static_cast<std::uint32_t>(rng.NextU64());
      const float s = std::bit_cast<float>(bits32);
      if (std::isfinite(s) && std::fabs(s) < 0x1p62f) values.push_back(s);
    }
    const auto m = MatrixF::FromFlat(1, values.size(), values);
    const auto q = QuantizeWithScale(m, bits, M);
    for (std::size_t i = 0; i < values.size(); ++i) {
      const long want = std::clamp<long>(std::lround(values[i]), -qmax, qmax);
      ASSERT_EQ(q.codes(0, i), want)
          << "bits " << bits << " s = " << values[i];
      ASSERT_EQ(QuantizeValue(values[i], bits, M), want)
          << "bits " << bits << " s = " << values[i];
    }
  }
}

TEST(QuantizeTest, FiniteScaleCodesUnchanged) {
  // Every matrix whose qmax / M is finite keeps exactly the codes of the
  // lround formula, on normal data and on tiny but normal scales alike.
  Rng rng(77);
  for (double sigma : {1.0, 1e-30, 1e30}) {
    const auto m = rng.NormalMatrix(16, 64, 0.0, sigma);
    for (int bits : {4, 8}) {
      const int qmax = MaxCode(bits);
      const float M = ScalingFactor(m);
      const auto q = Quantize(m, bits);
      for (std::size_t i = 0; i < m.size(); ++i) {
        const float s = (static_cast<float>(qmax) / M) * m.flat()[i];
        ASSERT_EQ(q.codes.flat()[i],
                  std::clamp<long>(std::lround(s), -qmax, qmax))
            << "sigma " << sigma << " bits " << bits << " i " << i;
      }
    }
  }
}

// --------------------------------------------------------- LutMultiplier --

TEST(LutMultiplierTest, MatchesIntegerMultiplyExhaustively) {
  LutMultiplier lut;
  for (int a = -8; a <= 7; ++a) {
    for (int b = -8; b <= 7; ++b) {
      EXPECT_EQ(lut.Mul(static_cast<std::int8_t>(a),
                        static_cast<std::int8_t>(b)),
                a * b);
    }
  }
}

TEST(LutMultiplierTest, DotMatchesReference) {
  LutMultiplier lut;
  std::vector<std::int8_t> a = {1, -3, 7, 0, -7};
  std::vector<std::int8_t> b = {-1, 2, 3, 5, 7};
  std::int32_t ref = 0;
  for (std::size_t i = 0; i < a.size(); ++i) ref += a[i] * b[i];
  EXPECT_EQ(lut.Dot(a, b), ref);
}

TEST(LutMultiplierTest, ScoreMatrixMatchesQuantizedGemm) {
  Rng rng(21);
  const auto qf = rng.NormalMatrix(5, 16, 0.0, 1.0);
  const auto kf = rng.NormalMatrix(7, 16, 0.0, 1.0);
  const auto q = Quantize(qf, 4);
  const auto k = Quantize(kf, 4);
  LutMultiplier lut;
  const auto s = lut.ScoreMatrix(q, k);
  ASSERT_EQ(s.rows(), 5u);
  ASSERT_EQ(s.cols(), 7u);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 7; ++j) {
      std::int32_t ref = 0;
      for (std::size_t c = 0; c < 16; ++c) {
        ref += static_cast<std::int32_t>(q.codes(i, c)) * k.codes(j, c);
      }
      EXPECT_EQ(s(i, j), ref);
    }
  }
}

TEST(LutMultiplierTest, ScoreMatrixRejectsCodesWiderThanTheTable) {
  // 8-bit codes reach +-127, far outside the table's [-8, 7] index range.
  Rng rng(23);
  const auto q8 = Quantize(rng.NormalMatrix(2, 4, 0.0, 1.0), 8);
  const auto k4 = Quantize(rng.NormalMatrix(2, 4, 0.0, 1.0), 4);
  LutMultiplier lut;
  for (const auto& [a, b] : {std::pair{&q8, &k4}, std::pair{&k4, &q8}}) {
    try {
      lut.ScoreMatrix(*a, *b);
      ADD_FAILURE() << "8-bit codes were accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("got 8-bit"), std::string::npos)
          << e.what();
    }
  }
}

TEST(LutMultiplierTest, ScoreMatrixRejectsHeadDimMismatch) {
  Rng rng(22);
  const auto q = Quantize(rng.NormalMatrix(2, 4, 0.0, 1.0), 4);
  const auto k = Quantize(rng.NormalMatrix(3, 5, 0.0, 1.0), 4);
  LutMultiplier lut;
  try {
    lut.ScoreMatrix(q, k);
    ADD_FAILURE() << "4- and 5-column codes were accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("head dim mismatch"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------- MatMul --

TEST(MatMulTest, IdentityPreserves) {
  auto a = MatrixF::FromFlat(2, 2, {1.f, 2.f, 3.f, 4.f});
  auto eye = MatrixF::FromFlat(2, 2, {1.f, 0.f, 0.f, 1.f});
  EXPECT_EQ(MatMul(a, eye), a);
}

TEST(MatMulTest, KnownProduct) {
  auto a = MatrixF::FromFlat(2, 3, {1, 2, 3, 4, 5, 6});
  auto b = MatrixF::FromFlat(3, 2, {7, 8, 9, 10, 11, 12});
  const auto c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c(0, 0), 58.f);
  EXPECT_FLOAT_EQ(c(0, 1), 64.f);
  EXPECT_FLOAT_EQ(c(1, 0), 139.f);
  EXPECT_FLOAT_EQ(c(1, 1), 154.f);
}

TEST(MatMulTest, ShapeMismatchThrows) {
  MatrixF a(2, 3), b(4, 2);
  EXPECT_THROW(MatMul(a, b), std::invalid_argument);
}

TEST(MatMulTest, MatMulBTEqualsMatMulWithTranspose) {
  Rng rng(31);
  const auto a = rng.NormalMatrix(4, 8, 0.0, 1.0);
  const auto b = rng.NormalMatrix(6, 8, 0.0, 1.0);
  const auto direct = MatMulBT(a, b);
  const auto viaT = MatMul(a, Transpose(b));
  ASSERT_EQ(direct.rows(), viaT.rows());
  ASSERT_EQ(direct.cols(), viaT.cols());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_NEAR(direct.flat()[i], viaT.flat()[i], 1e-4f);
  }
}

TEST(MatMulTest, TransposeInvolution) {
  Rng rng(32);
  const auto a = rng.NormalMatrix(3, 5, 0.0, 1.0);
  EXPECT_EQ(Transpose(Transpose(a)), a);
}

TEST(MatMulTest, AddBiasBroadcastsPerRow) {
  MatrixF a(2, 3, 1.f);
  std::vector<float> bias = {1.f, 2.f, 3.f};
  AddBiasInPlace(a, bias);
  EXPECT_FLOAT_EQ(a(0, 0), 2.f);
  EXPECT_FLOAT_EQ(a(1, 2), 4.f);
}

TEST(MatMulTest, FrobeniusDistanceZeroForEqual) {
  Rng rng(33);
  const auto a = rng.NormalMatrix(3, 3, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(FrobeniusDistance(a, a), 0.0);
}

TEST(MatMulTest, MeanRowCosineOneForIdentical) {
  Rng rng(34);
  const auto a = rng.NormalMatrix(5, 9, 0.0, 1.0);
  EXPECT_NEAR(MeanRowCosine(a, a), 1.0, 1e-6);
}

TEST(MatMulTest, MeanRowCosineNegatedIsMinusOne) {
  Rng rng(35);
  auto a = rng.NormalMatrix(5, 9, 0.0, 1.0);
  MatrixF b = a;
  ScaleInPlace(b, -1.f);
  EXPECT_NEAR(MeanRowCosine(a, b), -1.0, 1e-6);
}

// Property sweep: LUT score matrix == integer GEMM for both widths and
// several shapes.
class LutPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(LutPropertyTest, LutEqualsIntegerGemm) {
  const int bits = std::get<0>(GetParam());
  const int n = std::get<1>(GetParam());
  Rng rng(100 + static_cast<std::uint64_t>(n) * bits);
  const auto qf = rng.NormalMatrix(n, 32, 0.0, 1.5);
  const auto kf = rng.NormalMatrix(n, 32, 0.0, 1.5);
  const auto q = Quantize(qf, bits);
  const auto k = Quantize(kf, bits);
  LutMultiplier lut;
  const auto s = lut.ScoreMatrix(q, k);
  for (std::size_t i = 0; i < q.codes.rows(); ++i) {
    for (std::size_t j = 0; j < k.codes.rows(); ++j) {
      std::int32_t ref = 0;
      for (std::size_t c = 0; c < 32; ++c) {
        ref += static_cast<std::int32_t>(q.codes(i, c)) * k.codes(j, c);
      }
      EXPECT_EQ(s(i, j), ref);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BitsAndSizes, LutPropertyTest,
    ::testing::Combine(::testing::Values(1, 4),
                       ::testing::Values(1, 3, 8, 17)));

}  // namespace
}  // namespace latte
