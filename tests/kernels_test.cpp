// Property tests for the tiled/packed/workspace GEMM family in
// tensor/kernels.hpp: every variant must agree with the scalar reference
// within 1e-4 relative tolerance across odd shapes (1xN, Nx1, dims that
// are not multiples of any tile extent), the int8 kernel must be exact on
// every micro-kernel variant, per call and on weights packed once, and
// reused scratch must never change results or keep allocating.  The
// elementwise bodies (GELU, quantize, the int8 dequant epilogue) must give
// the portable four-lane body's bits on every width this host runs.

#include <gtest/gtest.h>

#include <bit>

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "nn/ops.hpp"
#include "nn/qlinear.hpp"
#include "runtime/workspace.hpp"
#include "tensor/kernels.hpp"
#include "tensor/matmul.hpp"
#include "tensor/matrix.hpp"
#include "tensor/quantize.hpp"
#include "tensor/rng.hpp"

namespace latte {
namespace {

// Scalar j-inner reference, double accumulation: the oracle every tiled
// variant is compared against.
MatrixF RefMatMul(const MatrixF& a, const MatrixF& b) {
  MatrixF c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      c(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

MatrixF RefMatMulBT(const MatrixF& a, const MatrixF& b) {
  MatrixF c(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.rows(); ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(j, k);
      c(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

// Naive i-j-p int8 reference with int64 accumulation, checked to fit int32.
MatrixI32 RefInt8Gemm(const MatrixI8& x, const MatrixI8& w) {
  MatrixI32 c(x.rows(), w.cols());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < w.cols(); ++j) {
      std::int64_t acc = 0;
      for (std::size_t p = 0; p < x.cols(); ++p) {
        acc += static_cast<std::int64_t>(x(i, p)) * w(p, j);
      }
      EXPECT_EQ(acc, static_cast<std::int32_t>(acc)) << "reference overflow";
      c(i, j) = static_cast<std::int32_t>(acc);
    }
  }
  return c;
}

// Uniform codes over the full int8 range, -128 included.
MatrixI8 RandomCodes(Rng& rng, std::size_t rows, std::size_t cols) {
  MatrixI8 q(rows, cols);
  for (auto& v : q.flat()) {
    v = static_cast<std::int8_t>(static_cast<int>(rng.NextIndex(256)) - 128);
  }
  return q;
}

void ExpectNearRel(const MatrixF& got, const MatrixF& want, float rel) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const float w = want.flat()[i];
    const float tol = rel * std::max(1.f, std::fabs(w));
    EXPECT_NEAR(got.flat()[i], w, tol) << "flat index " << i;
  }
}

// Shapes chosen to hit every tail path: single row/column, extents below,
// at and straddling the register-tile and K-tile boundaries.
using Shape = std::tuple<std::size_t, std::size_t, std::size_t>;  // n, k, m

const Shape kShapes[] = {
    {1, 1, 1},   {1, 7, 1},    {7, 1, 5},     {1, 64, 33},
    {5, 3, 2},   {4, 8, 8},    {6, 16, 16},   {17, 23, 31},
    {33, 65, 9}, {13, 256, 7}, {31, 300, 47}, {64, 511, 19},
};

class GemmShapeTest : public ::testing::TestWithParam<Shape> {};

TEST_P(GemmShapeTest, TiledMatchesReference) {
  const auto [n, k, m] = GetParam();
  Rng rng(100 + n * 31 + k * 7 + m);
  const auto a = rng.NormalMatrix(n, k, 0.0, 1.0);
  const auto b = rng.NormalMatrix(k, m, 0.0, 1.0);
  const MatrixF want = RefMatMul(a, b);

  ExpectNearRel(MatMul(a, b), want, 1e-4f);  // allocating shim

  MatrixF c;
  MatMulInto(a, b, c);  // thread-local scratch
  ExpectNearRel(c, want, 1e-4f);

  GemmScratch scratch;
  MatrixF c2;
  MatMulInto(a, b, c2, scratch);  // caller scratch
  ExpectNearRel(c2, want, 1e-4f);
  EXPECT_EQ(c, c2) << "scratch choice must not change bits";
}

TEST_P(GemmShapeTest, TiledBTMatchesReference) {
  const auto [n, k, m] = GetParam();
  Rng rng(500 + n * 31 + k * 7 + m);
  const auto a = rng.NormalMatrix(n, k, 0.0, 1.0);
  const auto b = rng.NormalMatrix(m, k, 0.0, 1.0);  // (m x k): C = A B^T
  const MatrixF want = RefMatMulBT(a, b);

  ExpectNearRel(MatMulBT(a, b), want, 1e-4f);

  GemmScratch scratch;
  MatrixF c;
  MatMulBTInto(a, b, c, scratch);
  ExpectNearRel(c, want, 1e-4f);
  EXPECT_EQ(c, MatMulBT(a, b)) << "scratch choice must not change bits";
}

TEST_P(GemmShapeTest, SkipZerosMatchesReference) {
  const auto [n, k, m] = GetParam();
  Rng rng(900 + n * 31 + k * 7 + m);
  auto a = rng.NormalMatrix(n, k, 0.0, 1.0);
  // Zero out a stripe so the skip actually fires.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < k; c += 3) a(i, c) = 0.f;
  }
  const auto b = rng.NormalMatrix(k, m, 0.0, 1.0);
  ExpectNearRel(MatMulSkipZeros(a, b), RefMatMul(a, b), 1e-4f);
}

TEST_P(GemmShapeTest, Int8GemmIsExact) {
  const auto [n, k, m] = GetParam();
  Rng rng(1300 + n * 31 + k * 7 + m);
  const MatrixI8 x = RandomCodes(rng, n, k);
  const MatrixI8 w = RandomCodes(rng, k, m);
  const MatrixI32 want = RefInt8Gemm(x, w);
  MatrixI32 got;
  Int8GemmInto(x, w, got);
  ASSERT_EQ(got.rows(), n);
  ASSERT_EQ(got.cols(), m);
  EXPECT_EQ(got, want);

  GemmScratch scratch;
  MatrixI32 got2;
  Int8GemmInto(x, w, got2, scratch);  // caller scratch
  EXPECT_EQ(got2, got) << "scratch choice must not change bits";

  for (const char* isa : Int8GemmIsas()) {
    MatrixI32 forced;
    Int8GemmIntoIsa(isa, x, w, forced, scratch);
    EXPECT_EQ(forced, want) << isa;
  }
}

INSTANTIATE_TEST_SUITE_P(OddShapes, GemmShapeTest,
                         ::testing::ValuesIn(kShapes));

TEST(Int8GemmTest, ExactAtExtremeCodes) {
  // k = 3073: odd, several K-tiles, and every pair sum of two -128 x -128
  // products reaches 32768 while the int32 totals run to ~5e7.  n = 5 and
  // m = 13 leave row and column tails on every register tile.
  const std::size_t n = 5, k = 3073, m = 13;
  auto check = [&](const char* name, auto x_code, auto w_code) {
    MatrixI8 x(n, k), w(k, m);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t p = 0; p < k; ++p) x(i, p) = x_code(i, p);
    }
    for (std::size_t p = 0; p < k; ++p) {
      for (std::size_t j = 0; j < m; ++j) w(p, j) = w_code(p, j);
    }
    const MatrixI32 want = RefInt8Gemm(x, w);
    GemmScratch scratch;
    for (const char* isa : Int8GemmIsas()) {
      MatrixI32 got;
      Int8GemmIntoIsa(isa, x, w, got, scratch);
      EXPECT_EQ(got, want) << name << " on " << isa;
      Int8GemmInto(x, PackedInt8Weights(isa, w), got, scratch);
      EXPECT_EQ(got, want) << name << " pre-packed on " << isa;
    }
  };
  auto constant = [](std::int8_t v) {
    return [v](std::size_t, std::size_t) { return v; };
  };
  // x = -128 is the K-quad offset code 0, x = +127 the offset code 255.
  check("all -128", constant(-128), constant(-128));
  check("all +127", constant(127), constant(127));
  check("-128 x +127", constant(-128), constant(127));
  check("+127 x -128", constant(127), constant(-128));
  check(
      "mixed signs",
      [](std::size_t i, std::size_t p) -> std::int8_t {
        return (i + p) % 2 == 0 ? -128 : 127;
      },
      [](std::size_t p, std::size_t j) -> std::int8_t {
        return (p + j) % 3 == 0 ? 127 : -128;
      });

  MatrixI8 x(1, k, -128), w(k, 1, -128);
  GemmScratch scratch;
  for (const char* isa : Int8GemmIsas()) {
    MatrixI32 got;
    Int8GemmIntoIsa(isa, x, w, got, scratch);
    EXPECT_EQ(got(0, 0), 3073 * 16384) << isa;
  }
}

TEST(Int8GemmTest, ExactAcrossKTileBoundariesAndTails) {
  // k % 4 tails, and k either side of 128 and of the 256-row K-tile;
  // rows 1..9, 13 and 15..17 put every row-tile tail after zero to four
  // full tiles; columns below, at and past the 8- and 16-wide panels and
  // the 24-, 32- and 64-column groups.  Per call and on weights packed
  // once, on every variant.
  Rng rng(1400);
  GemmScratch scratch;
  for (std::size_t k : {1u, 2u, 3u, 7u, 127u, 128u, 129u, 254u, 255u, 256u,
                        257u, 259u}) {
    for (std::size_t m : {1u, 7u, 9u, 15u, 16u, 17u, 24u, 31u, 32u, 33u, 63u,
                          64u, 65u, 127u, 129u}) {
      const MatrixI8 w = RandomCodes(rng, k, m);
      std::vector<PackedInt8Weights> packs;
      for (const char* isa : Int8GemmIsas()) packs.emplace_back(isa, w);
      for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 13u, 15u, 16u,
                            17u}) {
        const MatrixI8 x = RandomCodes(rng, n, k);
        const MatrixI32 want = RefInt8Gemm(x, w);
        for (const PackedInt8Weights& packed : packs) {
          MatrixI32 got;
          Int8GemmIntoIsa(packed.isa(), x, w, got, scratch);
          ASSERT_EQ(got, want)
              << packed.isa() << " n=" << n << " k=" << k << " m=" << m;
          Int8GemmInto(x, packed, got, scratch);
          ASSERT_EQ(got, want) << packed.isa() << " pre-packed n=" << n
                               << " k=" << k << " m=" << m;
        }
      }
    }
  }
}

TEST(Int8GemmTest, PrePackedMatchesReferenceOnEveryVariant) {
  // k % 4 in {1, 2, 3} (a K-pair or K-quad tail), either side of the
  // 256-row K-tile and of two; m below, at and across the 8-wide panels
  // and the 16-, 24- and 32-wide panel groups; n = 0, 1 and 5.
  Rng rng(1600);
  GemmScratch scratch;
  for (std::size_t k : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 127u, 255u, 256u, 257u,
                        258u, 259u, 511u, 513u}) {
    for (std::size_t m : {1u, 7u, 8u, 9u, 23u, 24u, 25u, 31u, 32u, 33u, 47u,
                          48u, 49u, 97u}) {
      const MatrixI8 w = RandomCodes(rng, k, m);
      for (std::size_t n : {0u, 1u, 5u}) {
        const MatrixI8 x = RandomCodes(rng, n, k);
        const MatrixI32 want = RefInt8Gemm(x, w);
        for (const char* isa : Int8GemmIsas()) {
          const PackedInt8Weights packed(isa, w);
          ASSERT_EQ(packed.rows(), k);
          ASSERT_EQ(packed.cols(), m);
          MatrixI32 got;
          Int8GemmInto(x, packed, got, scratch);
          ASSERT_EQ(got, want) << isa << " n=" << n << " k=" << k << " m=" << m;
        }
      }
    }
  }
}

TEST(Int8GemmTest, PackIsRunOnlyByTheVariantItWasMadeFor) {
  // The layouts differ in K grouping (pairs or quads), panel width and
  // panel-group padding, so a pack read by any other variant's sweep gives
  // wrong numbers on this shape.  Each pack keeps its variant, through
  // copies and whatever the dispatcher picks, and multiplies exactly.
  Rng rng(1700);
  const MatrixI8 w = RandomCodes(rng, 7, 9);
  const MatrixI8 x = RandomCodes(rng, 5, 7);
  const MatrixI32 want = RefInt8Gemm(x, w);
  GemmScratch scratch;
  for (const char* isa : Int8GemmIsas()) {
    const PackedInt8Weights packed(isa, w);
    EXPECT_EQ(std::string(packed.isa()), isa);
    const PackedInt8Weights copy = packed;
    EXPECT_EQ(std::string(copy.isa()), isa);
    MatrixI32 got;
    Int8GemmInto(x, copy, got, scratch);
    EXPECT_EQ(got, want) << isa;
  }
  EXPECT_EQ(std::string(PackedInt8Weights(w).isa()), KernelArchName());
  EXPECT_THROW(PackedInt8Weights("avx2+fma", w), std::invalid_argument);
  MatrixI32 out;
  EXPECT_THROW(Int8GemmInto(RandomCodes(rng, 2, 6), PackedInt8Weights(w),
                            out, scratch),
               std::invalid_argument);
}

TEST(Int8GemmTest, ExactUpToTheKBoundAndThrowsPastIt) {
  // At k = 2^16 the extreme codes reach |sum| = 2^30, and the K-quad
  // offset path runs its largest partial sums; one row more throws
  // instead of wrapping (all -128 at k = 2^17 would sum to 2^31).
  const std::size_t k = kInt8GemmMaxK;
  ASSERT_EQ(k, 65536u);
  GemmScratch scratch;
  for (const std::int8_t xv : {std::int8_t{-128}, std::int8_t{127}}) {
    for (const std::int8_t wv : {std::int8_t{-128}, std::int8_t{127}}) {
      const MatrixI8 x(2, k, xv), w(k, 9, wv);
      const MatrixI32 want = RefInt8Gemm(x, w);
      ASSERT_EQ(want(0, 0), static_cast<std::int64_t>(xv) * wv * 65536);
      for (const char* isa : Int8GemmIsas()) {
        MatrixI32 got;
        Int8GemmIntoIsa(isa, x, w, got, scratch);
        EXPECT_EQ(got, want) << isa << " x=" << int{xv} << " w=" << int{wv};
        Int8GemmInto(x, PackedInt8Weights(isa, w), got, scratch);
        EXPECT_EQ(got, want) << isa << " pre-packed x=" << int{xv}
                             << " w=" << int{wv};
      }
    }
  }
  const MatrixI8 x(1, k + 1, -128), w(k + 1, 1, -128);
  MatrixI32 out;
  EXPECT_THROW(Int8GemmInto(x, w, out), std::invalid_argument);
  EXPECT_THROW(PackedInt8Weights{w}, std::invalid_argument);
  for (const char* isa : Int8GemmIsas()) {
    EXPECT_THROW(Int8GemmIntoIsa(isa, x, w, out, scratch),
                 std::invalid_argument)
        << isa;
    EXPECT_THROW(PackedInt8Weights(isa, w), std::invalid_argument) << isa;
  }
}

TEST(Int8GemmTest, PackHoldsTheCodesBytes) {
  // BERT-base's FFN1 weight: the pack replaces 768 x 3072 row-major codes
  // with at most the panel padding and a 4-byte column bias more.
  Rng rng(1900);
  const std::size_t k = 768, m = 3072;
  const PackedInt8Weights packed(RandomCodes(rng, k, m));
  EXPECT_GE(packed.bytes(), k * m);
  EXPECT_LE(packed.bytes(), k * m + 4 * m);
}

TEST(QuantizedLinearPackTest, OddDimsMatchDequantizedReferenceBitForBit) {
  const std::pair<std::size_t, std::size_t> dims[] = {{13, 17}, {40, 24}};
  for (const auto& [in, out] : dims) {
    Rng rng(2000 + in);
    const Linear l = MakeLinear(rng, in, out);
    const QuantizedLinear q = QuantizedLinear::FromFloat(l);
    ASSERT_EQ(q.in_features(), in);
    ASSERT_EQ(q.out_features(), out);
    const QuantizedMatrix wq = Quantize(l.weight, 8);
    EXPECT_EQ(q.scale, wq.scale);

    const MatrixF x = rng.NormalMatrix(9, in, 0.0, 1.0);
    MatrixI8 xcodes;
    const float xscale = QuantizeInto(x, 8, xcodes);
    const MatrixI32 acc = RefInt8Gemm(xcodes, wq.codes);
    const float out_scale = xscale * wq.scale;
    MatrixF want(x.rows(), out);
    for (std::size_t i = 0; i < want.rows(); ++i) {
      for (std::size_t j = 0; j < out; ++j) {
        // Two statements, as in the layer: no compiler may fuse them.
        const float y = static_cast<float>(acc(i, j)) * out_scale;
        want(i, j) = y + l.bias[j];
      }
    }
    EXPECT_EQ(q.Forward(x), want) << in << " x " << out;
  }
}

TEST(Int8GemmTest, ScratchShrinksRegrowsAndStopsAllocating) {
  Rng rng(1500);
  const MatrixI8 big_x = RandomCodes(rng, 37, 300);
  const MatrixI8 big_w = RandomCodes(rng, 300, 70);
  const MatrixI8 small_x = RandomCodes(rng, 3, 5);
  const MatrixI8 small_w = RandomCodes(rng, 5, 2);

  GemmScratch scratch;
  MatrixI32 big1, small1, big2;
  Int8GemmInto(big_x, big_w, big1, scratch);
  const std::size_t bytes = scratch.CapacityBytes();
  EXPECT_GT(bytes, 0u);
  Int8GemmInto(small_x, small_w, small1, scratch);
  Int8GemmInto(big_x, big_w, big2, scratch);
  EXPECT_EQ(big1, big2);
  EXPECT_EQ(big1, RefInt8Gemm(big_x, big_w));
  EXPECT_EQ(small1, RefInt8Gemm(small_x, small_w));
  for (int r = 0; r < 3; ++r) Int8GemmInto(big_x, big_w, big2, scratch);
  EXPECT_EQ(scratch.CapacityBytes(), bytes) << "steady state must not grow";

  MatrixI32 thread_local_out;
  Int8GemmInto(big_x, big_w, thread_local_out);
  EXPECT_EQ(thread_local_out, big1) << "scratch choice must not change bits";
}

TEST(KernelsTest, ArchNameIsKnown) {
  const std::set<std::string> known = {"portable", "sse2", "avx2", "avxvnni",
                                       "avx512vnni"};
  const std::vector<const char*> isas = Int8GemmIsas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(std::string(isas.front()), "portable");
  for (const char* isa : isas) EXPECT_EQ(known.count(isa), 1u) << isa;
  EXPECT_EQ(std::string(KernelArchName()), isas.back());

  const MatrixI8 x(2, 3, 1), w(3, 2, 1);
  MatrixI32 out;
  GemmScratch scratch;
  EXPECT_THROW(Int8GemmIntoIsa("avx2+fma", x, w, out, scratch),
               std::invalid_argument);
}

// The elementwise bodies wider than the portable baseline that this host
// runs (none without AVX-512F).
std::vector<ElementwiseIsa> WideBodies() {
  std::vector<ElementwiseIsa> wide = ElementwiseIsas();
  wide.erase(wide.begin());
  return wide;
}

constexpr const char* kNoWideBody =
    "no AVX-512F on this host: only the portable elementwise body runs";

std::uint32_t Bits(float x) { return std::bit_cast<std::uint32_t>(x); }

TEST(ElementwiseTest, HostListsPortableFirstAndRunsTheLast) {
  const auto& isas = ElementwiseIsas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), ElementwiseIsa::kPortable);
  EXPECT_EQ(DispatchedElementwiseIsa(), isas.back());
  EXPECT_STREQ(ElementwiseIsaName(ElementwiseIsa::kPortable), "portable");
  EXPECT_STREQ(ElementwiseIsaName(ElementwiseIsa::kAvx512f), "avx512f");
  if (isas.size() == 1) {
    MatrixF m(1, 3);
    EXPECT_THROW(GeluInPlace(m, ElementwiseIsa::kAvx512f),
                 std::invalid_argument);
  }
}

TEST(ElementwiseTest, GeluBodiesMatchPortableOnBitPatternsAndEdges) {
  const auto wide = WideBodies();
  if (wide.empty()) GTEST_SKIP() << kNoWideBody;
  std::vector<float> x;
  Rng rng(2030);
  for (int i = 0; i < 200003; ++i) {  // every 32-bit pattern is a float
    x.push_back(
        std::bit_cast<float>(static_cast<std::uint32_t>(rng.NextU64())));
  }
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float tiny = std::numeric_limits<float>::min();  // smallest normal
  for (float v : {0.f, denorm, tiny - denorm, tiny, inf,
                  std::numeric_limits<float>::quiet_NaN(),
                  std::numeric_limits<float>::signaling_NaN(),
                  std::numeric_limits<float>::max()}) {
    x.push_back(v);
    x.push_back(-v);
  }
  // t = -2 sqrt(2/pi) (x + 0.044715 x^3) meets the +-87 clamps near
  // x = -+9.995: walk every float across both edges.
  for (const float edge : {-9.995f, 9.995f}) {
    float v = edge;
    for (int i = 0; i < 4096; ++i) v = std::nextafter(v, -inf);
    for (int i = 0; i < 8192; ++i) {
      x.push_back(v);
      v = std::nextafter(v, inf);
    }
  }
  const MatrixF in = MatrixF::FromFlat(1, x.size(), x);
  MatrixF want = in;
  GeluInPlace(want, ElementwiseIsa::kPortable);
  for (const ElementwiseIsa isa : wide) {
    MatrixF got = in;
    GeluInPlace(got, isa);
    for (std::size_t i = 0; i < in.size(); ++i) {
      ASSERT_EQ(Bits(got.flat()[i]), Bits(want.flat()[i]))
          << ElementwiseIsaName(isa) << " at x = " << in.flat()[i]
          << " (bits " << Bits(in.flat()[i]) << ")";
    }
  }
  // Every tail length of the widest body, and the scalar entry point.
  for (std::size_t n = 1; n <= 40; ++n) {
    const std::vector<float> tail(x.end() - n, x.end());
    const MatrixF part = MatrixF::FromFlat(1, n, tail);
    for (const ElementwiseIsa isa : wide) {
      MatrixF got = part;
      GeluInPlace(got, isa);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(Bits(got.flat()[i]), Bits(Gelu(part.flat()[i])))
            << ElementwiseIsaName(isa) << " n = " << n << " element " << i;
      }
    }
  }
}

// Quantizes `m` on every body and checks codes and scale against the
// portable body's, and the codes against QuantizeValue, the scalar rule.
void ExpectQuantizeBodiesAgree(const MatrixF& m, int bits,
                               const std::vector<ElementwiseIsa>& wide) {
  MatrixI8 want;
  const float want_scale =
      QuantizeInto(m, bits, want, ElementwiseIsa::kPortable);
  const float M = ScalingFactor(m);
  for (std::size_t i = 0; i < m.size(); ++i) {
    ASSERT_EQ(want.flat()[i], QuantizeValue(m.flat()[i], bits, M))
        << bits << "-bit, " << m.size() << " elements, element " << i;
  }
  for (const ElementwiseIsa isa : wide) {
    MatrixI8 got(1, 1, 99);  // stale contents must not survive
    const float scale = QuantizeInto(m, bits, got, isa);
    EXPECT_EQ(Bits(scale), Bits(want_scale)) << ElementwiseIsaName(isa);
    ASSERT_EQ(got, want) << ElementwiseIsaName(isa) << ", " << bits
                         << "-bit, " << m.size() << " elements";
  }
}

TEST(ElementwiseTest, QuantizeBodiesMatchPortableAtEveryTail) {
  const auto wide = WideBodies();
  if (wide.empty()) GTEST_SKIP() << kNoWideBody;
  Rng rng(2031);
  for (const int bits : {1, 4, 8}) {
    for (std::size_t n = 1; n <= 40; ++n) {
      ExpectQuantizeBodiesAgree(rng.NormalMatrix(1, n, 0.0, 2.0), bits, wide);
      ExpectQuantizeBodiesAgree(MatrixF(1, n), bits, wide);  // all zero
      // A subnormal M: qmax / M overflows, so x / M is taken first.
      MatrixF sub = rng.NormalMatrix(1, n, 0.0, 1.0);
      for (float& v : sub.flat()) v *= 1e-39f;
      ExpectQuantizeBodiesAgree(sub, bits, wide);
    }
    // Ties: at M = 127 the 8-bit scaled value is x itself.
    std::vector<float> ties = {127.f, 0.5f, -0.5f, 1.5f, -1.5f, 2.5f, -2.5f,
                               126.5f, -126.5f, 0.49999997f, -0.49999997f};
    for (int k = 0; k < 40; ++k) ties.push_back(static_cast<float>(k) - 19.5f);
    ExpectQuantizeBodiesAgree(MatrixF::FromFlat(1, ties.size(), ties), bits,
                              wide);
    ExpectQuantizeBodiesAgree(rng.NormalMatrix(53, 3072, 0.0, 1.0), bits,
                              wide);
  }
}

TEST(ElementwiseTest, QuantizeNamesTheFirstNonFiniteOnEveryBody) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  // 40 elements: two 16-lane vectors, then an 8-element tail.
  const std::vector<std::tuple<std::size_t, float, std::size_t>> cases = {
      {5, nan, 5}, {5, -inf, 5}, {37, nan, 37}, {37, inf, 37}, {0, inf, 0}};
  Rng rng(2032);
  for (const ElementwiseIsa isa : ElementwiseIsas()) {
    for (const auto& [at, bad, want] : cases) {
      MatrixF m = rng.NormalMatrix(1, 40, 0.0, 1.0);
      m.flat()[at] = bad;
      if (at == 5) m.flat()[37] = nan;  // a later one is not named
      MatrixI8 codes;
      try {
        QuantizeInto(m, 8, codes, isa);
        ADD_FAILURE() << ElementwiseIsaName(isa) << ": no throw at " << at;
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()),
                  "Quantize: non-finite element at flat index " +
                      std::to_string(want))
            << ElementwiseIsaName(isa);
      }
    }
  }
}

TEST(ElementwiseTest, DequantizeMatchesTheTwoPassEpilogue) {
  Rng rng(2033);
  MatrixI32 acc(3, 37);  // an odd column count: every body runs a tail
  for (std::int32_t& a : acc.flat()) {
    a = static_cast<std::int32_t>(rng.NextIndex(std::uint64_t{1} << 31)) -
        (std::int32_t{1} << 30);
  }
  acc.flat()[0] = std::numeric_limits<std::int32_t>::max();
  acc.flat()[1] = std::numeric_limits<std::int32_t>::min();
  std::vector<float> bias(acc.cols());
  for (float& b : bias) b = static_cast<float>(rng.NextNormal());
  const float scale = 3.0517578e-05f * 0.0123f;
  // The epilogue before it was fused: a multiply pass, then the bias.
  MatrixF scaled(acc.rows(), acc.cols());
  for (std::size_t i = 0; i < acc.size(); ++i) {
    scaled.flat()[i] = static_cast<float>(acc.flat()[i]) * scale;
  }
  MatrixF biased = scaled;
  AddBiasInPlace(biased, bias);
  for (const ElementwiseIsa isa : ElementwiseIsas()) {
    MatrixF out(1, 1, 7.f);
    DequantizeInto(acc, scale, {}, out, isa);
    ASSERT_EQ(out.rows(), acc.rows());
    ASSERT_EQ(out.cols(), acc.cols());
    for (std::size_t i = 0; i < acc.size(); ++i) {
      ASSERT_EQ(Bits(out.flat()[i]), Bits(scaled.flat()[i]))
          << ElementwiseIsaName(isa) << " no bias, element " << i;
    }
    DequantizeInto(acc, scale, bias, out, isa);
    for (std::size_t i = 0; i < acc.size(); ++i) {
      ASSERT_EQ(Bits(out.flat()[i]), Bits(biased.flat()[i]))
          << ElementwiseIsaName(isa) << " bias, element " << i;
    }
    const std::vector<float> short_bias(acc.cols() - 1);
    EXPECT_THROW(DequantizeInto(acc, scale, short_bias, out, isa),
                 std::invalid_argument);
  }
}

TEST(KernelsTest, EmptyExtentsYieldZeroSizedOrZeroedOutputs) {
  GemmScratch scratch;
  MatrixF c;
  MatMulInto(MatrixF(0, 5), MatrixF(5, 3), c, scratch);
  EXPECT_EQ(c.rows(), 0u);
  EXPECT_EQ(c.cols(), 3u);
  // k == 0: the product is defined and all-zero.
  MatMulInto(MatrixF(4, 0), MatrixF(0, 3), c, scratch);
  EXPECT_EQ(c.rows(), 4u);
  for (float v : c.flat()) EXPECT_EQ(v, 0.f);
  MatMulBTInto(MatrixF(2, 0), MatrixF(3, 0), c, scratch);
  EXPECT_EQ(c.rows(), 2u);
  EXPECT_EQ(c.cols(), 3u);
  for (float v : c.flat()) EXPECT_EQ(v, 0.f);
}

TEST(KernelsTest, ShapeMismatchThrows) {
  GemmScratch scratch;
  MatrixF c;
  EXPECT_THROW(MatMulInto(MatrixF(2, 3), MatrixF(4, 2), c, scratch),
               std::invalid_argument);
  EXPECT_THROW(MatMulBTInto(MatrixF(2, 3), MatrixF(4, 2), c, scratch),
               std::invalid_argument);
  MatrixI32 acc;
  EXPECT_THROW(Int8GemmInto(MatrixI8(2, 3), MatrixI8(4, 2), acc),
               std::invalid_argument);
  EXPECT_THROW(MatMulSkipZeros(MatrixF(2, 3), MatrixF(4, 2)),
               std::invalid_argument);
}

TEST(KernelsTest, ScratchShrinksAndRegrowsWithoutValueChanges) {
  // One scratch reused across wildly different shapes: results must match
  // fresh-scratch runs bit for bit in both directions.
  GemmScratch scratch;
  Rng rng(77);
  const auto big_a = rng.NormalMatrix(40, 300, 0.0, 1.0);
  const auto big_b = rng.NormalMatrix(300, 50, 0.0, 1.0);
  const auto small_a = rng.NormalMatrix(3, 5, 0.0, 1.0);
  const auto small_b = rng.NormalMatrix(5, 2, 0.0, 1.0);

  MatrixF big1, small1, big2;
  MatMulInto(big_a, big_b, big1, scratch);
  MatMulInto(small_a, small_b, small1, scratch);
  MatMulInto(big_a, big_b, big2, scratch);
  EXPECT_EQ(big1, big2);

  GemmScratch fresh;
  MatrixF small_fresh;
  MatMulInto(small_a, small_b, small_fresh, fresh);
  EXPECT_EQ(small1, small_fresh);
}

TEST(KernelsTest, ScratchStopsAllocatingAtSteadyState) {
  GemmScratch scratch;
  Rng rng(78);
  const auto a = rng.NormalMatrix(30, 200, 0.0, 1.0);
  const auto b = rng.NormalMatrix(200, 60, 0.0, 1.0);
  MatrixF c;
  MatMulInto(a, b, c, scratch);
  const std::size_t bytes = scratch.CapacityBytes();
  EXPECT_GT(bytes, 0u);
  for (int r = 0; r < 5; ++r) MatMulInto(a, b, c, scratch);
  EXPECT_EQ(scratch.CapacityBytes(), bytes);
}

TEST(KernelsTest, WorkspaceLeasesGemmScratch) {
  Workspace ws;
  const std::size_t leases_before = ws.leases();
  GemmScratch& gs = ws.gemm();
  EXPECT_EQ(ws.leases(), leases_before + 1);

  Rng rng(79);
  const auto a = rng.NormalMatrix(20, 100, 0.0, 1.0);
  const auto b = rng.NormalMatrix(100, 30, 0.0, 1.0);
  MatrixF c;
  MatMulInto(a, b, c, gs);
  const std::size_t bytes = ws.CapacityBytes();
  EXPECT_GT(gs.CapacityBytes(), 0u);
  EXPECT_GE(bytes, gs.CapacityBytes());
  MatMulInto(a, b, c, ws.gemm());
  EXPECT_EQ(ws.CapacityBytes(), bytes) << "steady state must not reallocate";

  // The int8 GEMM's int8 panel and activation-step buffers are part of
  // the same leased scratch, counted and reused the same way.
  const MatrixI8 x = RandomCodes(rng, 9, 200);
  const MatrixI8 w = RandomCodes(rng, 200, 40);
  MatrixI32 acc;
  Int8GemmInto(x, w, acc, ws.gemm());
  EXPECT_GT(gs.wpack.capacity(), 0u);
  EXPECT_GT(gs.xpack.capacity(), 0u);
  EXPECT_EQ(gs.CapacityBytes(),
            gs.bpack.capacity() * sizeof(float) +
                gs.wpack.capacity() * sizeof(std::int8_t) +
                gs.xpack.capacity() * sizeof(std::int32_t));
  const std::size_t int8_bytes = ws.CapacityBytes();
  EXPECT_GE(int8_bytes,
            bytes + gs.wpack.capacity() * sizeof(std::int8_t));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(gs.wpack.data()) % 64, 0u)
      << "pack buffer must be cache-line aligned";
  Int8GemmInto(x, w, acc, ws.gemm());
  EXPECT_EQ(ws.CapacityBytes(), int8_bytes);

  ws.Reset();
  EXPECT_EQ(ws.CapacityBytes(), 0u);
}

TEST(KernelsTest, DotProductMatchesSerialWithinTolerance) {
  Rng rng(80);
  for (std::size_t len : {0u, 1u, 3u, 4u, 17u, 64u, 257u}) {
    std::vector<float> a(len), b(len);
    for (auto& v : a) v = static_cast<float>(rng.NextNormal());
    for (auto& v : b) v = static_cast<float>(rng.NextNormal());
    double ref = 0.0;
    for (std::size_t i = 0; i < len; ++i) {
      ref += static_cast<double>(a[i]) * b[i];
    }
    EXPECT_NEAR(DotProduct(a, b), ref, 1e-4 * std::max(1.0, std::fabs(ref)));
  }
  std::vector<float> a(3), b(4);
  EXPECT_THROW(DotProduct(a, b), std::invalid_argument);
}

TEST(KernelsTest, DotProductsEqualFourDotProductsBitForBit) {
  Rng rng(81);
  for (std::size_t len : {0u, 1u, 3u, 4u, 5u, 17u, 64u, 65u, 257u}) {
    std::vector<float> a(len);
    std::vector<std::vector<float>> b(4, std::vector<float>(len));
    for (auto& v : a) v = static_cast<float>(rng.NextNormal());
    for (auto& row : b) {
      for (auto& v : row) v = static_cast<float>(rng.NextNormal());
    }
    const auto got = DotProducts(a, {b[0], b[1], b[2], b[3]});
    for (std::size_t r = 0; r < 4; ++r) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(got[r]),
                std::bit_cast<std::uint32_t>(DotProduct(a, b[r])))
          << "len " << len << " row " << r;
    }
  }
  std::vector<float> a(4), b(4), c(5);
  EXPECT_THROW(DotProducts(a, {b, b, c, b}), std::invalid_argument);
}

TEST(KernelsTest, DenseMatMulNoLongerBranchesOnZeros) {
  // The dense entry point must treat an all-zero A like any other input
  // (the seed skipped zero elements inside MatMul itself); the sparse-
  // aware entry point keeps the skip and still produces the same values.
  MatrixF a(3, 4);  // all zeros
  Rng rng(81);
  const auto b = rng.NormalMatrix(4, 5, 0.0, 1.0);
  const MatrixF dense = MatMul(a, b);
  const MatrixF skip = MatMulSkipZeros(a, b);
  for (std::size_t i = 0; i < dense.size(); ++i) {
    EXPECT_EQ(dense.flat()[i], 0.f);
    EXPECT_EQ(skip.flat()[i], 0.f);
  }
}

}  // namespace
}  // namespace latte
