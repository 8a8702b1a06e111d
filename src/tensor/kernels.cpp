#include "tensor/kernels.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>

#include "tensor/lanes.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace latte {
namespace {

// ----------------------------------------------------------- float GEMM --
//
// Every float body runs the same blocking and the same arithmetic: the
// reduction is cut into K-tiles of kKc rows, and each output element is
// reduced from zero over the rows of a K-tile in order, one rounded
// multiply and one rounded add per row, before that partial sum is added
// to C.  The bodies differ only in how many elements they reduce at once,
// so every body gives the same bits.  This file is compiled with
// -ffp-contract=off, so no body fuses a multiply-add, not even under
// target("avx512f"), which has FMA.
//
// The portable body keeps a 4 x 8 register tile in eight named 128-bit
// vectors (GNU vector extensions, so they are register-allocated on any
// ISA gcc/clang target); other compilers fall back to a plain scalar tile.
// The avx512f body keeps a 4 x 32 tile in eight zmm accumulators.
constexpr std::size_t kMr = 4;
constexpr std::size_t kNr = 8;

// K-tile: one packed B panel is kKc x nr floats (8 or 32 KiB), L1-resident
// across the whole row sweep of an M-block.  M-block: the A rows touched
// per panel sweep (kMc x kKc floats = 128 KiB), L2-resident.  kKc is part
// of the result: it fixes where the partial sums are added to C.
constexpr std::size_t kKc = 256;
constexpr std::size_t kMc = 128;

// A body's panel sweep: adds the product of rows [0, mc) of A (kc columns
// at a, rows lda apart) and one packed panel bp into the first nr columns
// of the matching rows of C at c (rows ldc apart).
using FloatSweep = void (*)(std::size_t mc, std::size_t kc, const float* a,
                            std::size_t lda, const float* bp, float* c,
                            std::size_t ldc, std::size_t nr);

// One float GEMM body: its panel width in columns and its sweep.
struct FloatBody {
  std::size_t nr;
  FloatSweep sweep;
};

// Packs the (kc x m) window of B starting at row `pc`, column `col0` into
// nr-wide column panels: panel jp holds window columns
// [jp*nr, jp*nr + nr), stored p-major so the micro-kernel streams it
// contiguously.  The last panel is zero-padded to nr columns; padded
// lanes contribute exact zeros to the accumulators, so the micro-kernel
// never branches on a column tail.  Full GEMMs pack col0 = 0, m = cols();
// the sharded column-slice GEMM packs a sub-window, which shifts panel
// boundaries but not the per-element reduction order -- that is what
// keeps column shards bit-exact against the monolithic product.
void PackB(const MatrixF& b, std::size_t col0, std::size_t m, std::size_t pc,
           std::size_t kc, std::size_t nr, float* dst) {
  const std::size_t panels = (m + nr - 1) / nr;
  for (std::size_t jp = 0; jp < panels; ++jp) {
    const std::size_t j0 = jp * nr;
    const std::size_t w = std::min(nr, m - j0);
    float* out = dst + jp * kc * nr;
    for (std::size_t p = 0; p < kc; ++p) {
      const float* src = b.row(pc + p).data() + col0 + j0;
      float* o = out + p * nr;
      for (std::size_t j = 0; j < w; ++j) o[j] = src[j];
      for (std::size_t j = w; j < nr; ++j) o[j] = 0.f;
    }
  }
}

// Transpose-pack for the A * B^T orientation: output column j of the
// product is row j of B, so panel jp gathers rows [jp*nr, jp*nr + nr) of
// B at reduction offset pc.  Same layout and padding as PackB, which is
// what lets both GEMM orientations share one micro-kernel.
void PackBT(const MatrixF& b, std::size_t pc, std::size_t kc, std::size_t nr,
            float* dst) {
  const std::size_t m = b.rows();
  const std::size_t panels = (m + nr - 1) / nr;
  for (std::size_t jp = 0; jp < panels; ++jp) {
    const std::size_t j0 = jp * nr;
    const std::size_t w = std::min(nr, m - j0);
    float* out = dst + jp * kc * nr;
    for (std::size_t j = 0; j < w; ++j) {
      const float* src = b.row(j0 + j).data() + pc;
      for (std::size_t p = 0; p < kc; ++p) out[p * nr + j] = src[p];
    }
    for (std::size_t j = w; j < nr; ++j) {
      for (std::size_t p = 0; p < kc; ++p) out[p * nr + j] = 0.f;
    }
  }
}

#if defined(__GNUC__) || defined(__clang__)

// Full 4 x 8 micro-kernel on GNU vector extensions: eight named 128-bit
// accumulators stay in registers across the whole reduction (a 2D local
// array does not -- the compiler spills it to the stack every iteration,
// which is slower than the naive loop it is meant to replace).
using V4 = float __attribute__((vector_size(16)));

inline V4 LoadV4(const float* p) {
  V4 v;
  __builtin_memcpy(&v, p, sizeof(v));  // unaligned-safe, no strict aliasing
  return v;
}

void MicroKernelFull(std::size_t kc, const float* a, std::size_t lda,
                     const float* bp, float* c, std::size_t ldc,
                     std::size_t nr) {
  V4 a00{}, a01{}, a10{}, a11{}, a20{}, a21{}, a30{}, a31{};
  for (std::size_t p = 0; p < kc; ++p) {
    const V4 b0 = LoadV4(bp + p * kNr);
    const V4 b1 = LoadV4(bp + p * kNr + 4);
    const float x0 = a[p];
    const float x1 = a[lda + p];
    const float x2 = a[2 * lda + p];
    const float x3 = a[3 * lda + p];
    a00 += x0 * b0;
    a01 += x0 * b1;
    a10 += x1 * b0;
    a11 += x1 * b1;
    a20 += x2 * b0;
    a21 += x2 * b1;
    a30 += x3 * b0;
    a31 += x3 * b1;
  }
  float tile[kMr][kNr];
  __builtin_memcpy(tile[0], &a00, sizeof(V4));
  __builtin_memcpy(tile[0] + 4, &a01, sizeof(V4));
  __builtin_memcpy(tile[1], &a10, sizeof(V4));
  __builtin_memcpy(tile[1] + 4, &a11, sizeof(V4));
  __builtin_memcpy(tile[2], &a20, sizeof(V4));
  __builtin_memcpy(tile[2] + 4, &a21, sizeof(V4));
  __builtin_memcpy(tile[3], &a30, sizeof(V4));
  __builtin_memcpy(tile[3] + 4, &a31, sizeof(V4));
  for (std::size_t i = 0; i < kMr; ++i) {
    float* ci = c + i * ldc;
    for (std::size_t j = 0; j < nr; ++j) ci[j] += tile[i][j];
  }
}

#else

// Full MR x NR micro-kernel, last-resort portable version: fixed-extent
// loops over a local accumulator tile, left to the auto-vectorizer.
void MicroKernelFull(std::size_t kc, const float* a, std::size_t lda,
                     const float* bp, float* c, std::size_t ldc,
                     std::size_t nr) {
  float acc[kMr][kNr] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const float* b = bp + p * kNr;
    for (std::size_t i = 0; i < kMr; ++i) {
      const float ai = a[i * lda + p];
      for (std::size_t j = 0; j < kNr; ++j) acc[i][j] += ai * b[j];
    }
  }
  for (std::size_t i = 0; i < kMr; ++i) {
    float* ci = c + i * ldc;
    for (std::size_t j = 0; j < nr; ++j) ci[j] += acc[i][j];
  }
}

#endif

// Row-tail micro-kernel (mr < kMr): one accumulator row at a time.
void MicroKernelTail(std::size_t mr, std::size_t kc, const float* a,
                     std::size_t lda, const float* bp, float* c,
                     std::size_t ldc, std::size_t nr) {
  for (std::size_t i = 0; i < mr; ++i) {
    float acc[kNr] = {};
    const float* ai = a + i * lda;
    for (std::size_t p = 0; p < kc; ++p) {
      const float aip = ai[p];
      const float* b = bp + p * kNr;
      for (std::size_t j = 0; j < kNr; ++j) acc[j] += aip * b[j];
    }
    float* ci = c + i * ldc;
    for (std::size_t j = 0; j < nr; ++j) ci[j] += acc[j];
  }
}

void SweepPortable(std::size_t mc, std::size_t kc, const float* a,
                   std::size_t lda, const float* bp, float* c,
                   std::size_t ldc, std::size_t nr) {
  std::size_t ir = 0;
  for (; ir + kMr <= mc; ir += kMr) {
    MicroKernelFull(kc, a + ir * lda, lda, bp, c + ir * ldc, ldc, nr);
  }
  if (ir < mc) {
    MicroKernelTail(mc - ir, kc, a + ir * lda, lda, bp, c + ir * ldc, ldc, nr);
  }
}

#if defined(LATTE_X86_DISPATCH)

// The avx512f body: an Mr x 32 tile in 2 Mr zmm accumulators, each step
// two panel loads and Mr broadcast activations, multiplied and then added
// (the order the portable body rounds in).  Timed on a 4-core AVX-512
// Xeon, 4 x 32 ran the probe's 24-column head slice (177 x 96 x 24) in
// ~15.7 us against ~16.1 us for 8 x 16 and 8 x 32 and ~17.3 us for 4 x 16,
// and the BERT-base shapes at 54-70 GFLOP/s, level with 6 x 32 and 8 x 32
// and ahead of 4 x 16 (43-62).  A column tail is added into C through
// masked loads and stores, which touch no element past the nr columns; a
// row tail runs the same kernel with fewer rows.
constexpr std::size_t kMrAvx512 = 4;
constexpr std::size_t kLanesAvx512 = 16;
constexpr std::size_t kNvAvx512 = 2;  // zmm vectors per tile row
constexpr std::size_t kNrAvx512 = kNvAvx512 * kLanesAvx512;

template <std::size_t Mr>
__attribute__((target("avx512f"))) inline void TileAvx512(
    std::size_t kc, const float* a, std::size_t lda, const float* bp,
    float* c, std::size_t ldc, std::size_t nr) {
  __m512 acc[Mr][kNvAvx512];
#pragma GCC unroll 4
  for (std::size_t i = 0; i < Mr; ++i) {
#pragma GCC unroll 2
    for (std::size_t v = 0; v < kNvAvx512; ++v) {
      acc[i][v] = _mm512_setzero_ps();
    }
  }
  for (std::size_t p = 0; p < kc; ++p) {
    __m512 b[kNvAvx512];
#pragma GCC unroll 2
    for (std::size_t v = 0; v < kNvAvx512; ++v) {
      b[v] = _mm512_loadu_ps(bp + p * kNrAvx512 + v * kLanesAvx512);
    }
#pragma GCC unroll 4
    for (std::size_t i = 0; i < Mr; ++i) {
      const __m512 x = _mm512_set1_ps(a[i * lda + p]);
#pragma GCC unroll 2
      for (std::size_t v = 0; v < kNvAvx512; ++v) {
        acc[i][v] = _mm512_add_ps(acc[i][v], _mm512_mul_ps(x, b[v]));
      }
    }
  }
#pragma GCC unroll 2
  for (std::size_t v = 0; v < kNvAvx512; ++v) {
    const std::size_t j0 = v * kLanesAvx512;
    if (nr <= j0) break;
    const std::size_t w = std::min(kLanesAvx512, nr - j0);
    const __mmask16 mask = static_cast<__mmask16>((1u << w) - 1);
#pragma GCC unroll 4
    for (std::size_t i = 0; i < Mr; ++i) {
      float* ci = c + i * ldc + j0;
      if (w == kLanesAvx512) {
        _mm512_storeu_ps(ci, _mm512_add_ps(_mm512_loadu_ps(ci), acc[i][v]));
      } else {
        _mm512_mask_storeu_ps(ci, mask,
                              _mm512_add_ps(_mm512_maskz_loadu_ps(mask, ci),
                                            acc[i][v]));
      }
    }
  }
}

__attribute__((target("avx512f"))) void SweepAvx512(
    std::size_t mc, std::size_t kc, const float* a, std::size_t lda,
    const float* bp, float* c, std::size_t ldc, std::size_t nr) {
  std::size_t ir = 0;
  for (; ir + kMrAvx512 <= mc; ir += kMrAvx512) {
    TileAvx512<kMrAvx512>(kc, a + ir * lda, lda, bp, c + ir * ldc, ldc, nr);
  }
  a += ir * lda;
  c += ir * ldc;
  switch (mc - ir) {
    case 3:
      TileAvx512<3>(kc, a, lda, bp, c, ldc, nr);
      break;
    case 2:
      TileAvx512<2>(kc, a, lda, bp, c, ldc, nr);
      break;
    case 1:
      TileAvx512<1>(kc, a, lda, bp, c, ldc, nr);
      break;
    default:
      break;
  }
}

#endif

// Indexed by ElementwiseIsa.
const FloatBody kFloatBodies[] = {
    {kNr, SweepPortable},
#if defined(LATTE_X86_DISPATCH)
    {kNrAvx512, SweepAvx512},
#endif
};

const FloatBody& FloatBodyFor(ElementwiseIsa isa, const char* caller) {
  CheckElementwiseIsa(isa, caller);
  return kFloatBodies[static_cast<std::size_t>(isa)];
}

// Shared blocked driver.  `k` is the reduction extent, `m` the output
// width; `pack` materializes the current K-tile in the body's panels.
template <typename PackFn>
void TiledGemm(const FloatBody& body, const MatrixF& a, std::size_t k,
               std::size_t m, MatrixF& c, GemmScratch& scratch,
               PackFn&& pack) {
  const std::size_t n = a.rows();
  c.Resize(n, m);
  std::fill(c.flat().begin(), c.flat().end(), 0.f);
  if (n == 0 || m == 0 || k == 0) return;

  const std::size_t nr = body.nr;
  const std::size_t panels = (m + nr - 1) / nr;
  scratch.bpack.resize(panels * std::min(kKc, k) * nr);
  for (std::size_t pc = 0; pc < k; pc += kKc) {
    const std::size_t kc = std::min(kKc, k - pc);
    pack(pc, kc, nr, scratch.bpack.data());
    for (std::size_t ic = 0; ic < n; ic += kMc) {
      const std::size_t mc = std::min(kMc, n - ic);
      for (std::size_t jp = 0; jp < panels; ++jp) {
        const std::size_t j0 = jp * nr;
        body.sweep(mc, kc, a.row(ic).data() + pc, a.cols(),
                   scratch.bpack.data() + jp * kc * nr, c.row(ic).data() + j0,
                   m, std::min(nr, m - j0));
      }
    }
  }
}

// ------------------------------------------------------------ int8 GEMM --
//
// Two packed layouts of W, one per kind of multiply-add.
//
// K-pairs (portable, sse2, avx2).  A 16-bit multiply-add (pmaddwd)
// multiplies int16 lanes pairwise and sums adjacent products into int32
// lanes, so one reduction step consumes two K rows: W is stored as int8
// pairs {w(p, j), w(p+1, j)}, column by column, and widened to int16 in
// registers, and the activation pair {x(i, p), x(i, p+1)} is one int32 of
// two int16 halves, broadcast to every lane.
//
// K-quads (avxvnni, avx512vnni).  vpdpbusd multiplies unsigned by signed
// bytes and sums four adjacent products into each int32 lane, so one step
// consumes four K rows: W is stored as int8 quads {w(p..p+3, j)}, and the
// activation quad is the four bytes x(i, p..p+3) + 128, now unsigned.
// Since sum (x + 128) w = sum x w + 128 sum w, each output starts from
// -128 x the column sum of W, which the pack stores ahead of its panels.
//
// Either layout is a run of K-tiles of kKc8 rows, each split into column
// panels as wide as the variant's vector (8 columns, or 16 for the 512-bit
// kernel), stored step by step.  PackWeights writes it: once, at load, for
// QuantizedLinear (PackedInt8Weights), or per call into GemmScratch::wpack
// when Int8GemmInto gets a row-major W.  Either way the same sweep reads
// it.
//
// Exactness.  A K-tile's partial sums stay in registers and are added to
// C, so every int32 intermediate is either one tile's sum or C after a
// prefix of tiles: sum_{p<P} x w, or for quads
// sum_{p<P} x w - 128 sum_{p>=P} w.  Both are at most 255 * 128 * k in
// magnitude, under 2^31 for k <= kInt8GemmMaxK = 2^16; and int32 addition
// is associative, so every variant gives the naive loop's bits.  The
// micro-kernels differ in speed, never in bits, and the widest one the CPU
// supports is chosen once, at run time.

// Register tile rows of every variant, and panel width of every variant
// but the 512-bit one: a K-pair panel row (8 columns x 2 bytes) widens to
// one 256-bit vector of int16, and a K-quad panel row (8 columns x 4
// bytes) is one 256-bit vector.  Interleave writes panel rows in halves
// of kNr8 columns.
constexpr std::size_t kMr8 = 4;
constexpr std::size_t kNr8 = 8;

// The 128-bit kernels load each activation step pre-broadcast to four
// lanes (SSE2 has no broadcast load); the wider ones broadcast it from a
// single packed copy.
constexpr std::size_t kLanes128 = 4;

// K-tile: the rows of W one sweep streams per row tile.  256 rows of a
// 3072-wide W are 0.75 MiB, which stays L2-resident across the row tiles.
// A multiple of four, so no step straddles two tiles.
constexpr std::size_t kKc8 = 256;

// A variant's row-tile sweep: adds the product of one packed row tile
// (`steps` K-steps, `lanes` copies per step) and every column panel of
// one packed K-tile into the first mr rows of C at c, which is m columns
// wide.
using Int8Sweep = void (*)(std::size_t steps, const std::int32_t* xp,
                           const std::int8_t* wp, std::int32_t* c,
                           std::size_t m, std::size_t mr);

// One micro-kernel variant: its ISA name, the K rows per step (2 for
// K-pairs, 4 for K-quads), the packed copies per activation step, its
// panel width in columns (8 or 16) and the panels per step its kernel
// reads, the sweep itself and its CPU check.
struct Int8Variant {
  const char* isa;
  std::size_t kstep;
  std::size_t lanes;
  std::size_t nr;
  std::size_t panels;
  Int8Sweep sweep;
  bool (*supported)();
};

inline std::size_t Steps(const Int8Variant& v, std::size_t kc) {
  return (kc + v.kstep - 1) / v.kstep;
}

// Column panels of a packed K-tile: m rounded up to whole groups of the
// variant's panels per step, so its kernel never branches on a short last
// group.
inline std::size_t PaddedPanels(const Int8Variant& v, std::size_t m) {
  const std::size_t group = v.panels * v.nr;
  return (m + group - 1) / group * v.panels;
}

// Bytes of one packed K-tile of kc rows.
inline std::size_t TileBytes(const Int8Variant& v, std::size_t kc,
                             std::size_t m) {
  return PaddedPanels(v, m) * Steps(v, kc) * v.kstep * v.nr;
}

// Bytes ahead of the first K-tile: the K-quad column bias, m int32 rounded
// up to whole cache lines so the panels stay line-aligned.
inline std::size_t BiasBytes(const Int8Variant& v, std::size_t m) {
  return v.kstep == 4 ? (m * sizeof(std::int32_t) + 63) / 64 * 64 : 0;
}

std::size_t PackedBytes(const Int8Variant& v, std::size_t k, std::size_t m) {
  return BiasBytes(v, m) + k / kKc8 * TileBytes(v, kKc8, m) +
         TileBytes(v, k % kKc8, m);
}

void CheckInt8K(std::size_t k) {
  if (k > kInt8GemmMaxK) {
    throw std::invalid_argument(
        "Int8GemmInto: k = " + std::to_string(k) + " exceeds " +
        std::to_string(kInt8GemmMaxK) + ", past which int32 sums can overflow");
  }
}

// Interleaves 16 columns of the KStep rows r[t] into two 8-column halves
// of panel rows, out[j / 8][KStep * (j % 8) + t] = r[t][j], with vector
// byte unpacks where there are any.
template <std::size_t KStep>
inline void Interleave(const std::int8_t* const* r, std::int8_t* const* out) {
#if defined(__SSE2__)
  auto load = [](const std::int8_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  };
  auto store = [](std::int8_t* p, __m128i v) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  };
  const __m128i r0 = load(r[0]);
  const __m128i r1 = load(r[1]);
  if constexpr (KStep == 2) {
    store(out[0], _mm_unpacklo_epi8(r0, r1));
    store(out[1], _mm_unpackhi_epi8(r0, r1));
  } else {
    const __m128i r2 = load(r[2]);
    const __m128i r3 = load(r[3]);
    const __m128i lo01 = _mm_unpacklo_epi8(r0, r1);
    const __m128i lo23 = _mm_unpacklo_epi8(r2, r3);
    const __m128i hi01 = _mm_unpackhi_epi8(r0, r1);
    const __m128i hi23 = _mm_unpackhi_epi8(r2, r3);
    store(out[0], _mm_unpacklo_epi16(lo01, lo23));
    store(out[0] + 16, _mm_unpackhi_epi16(lo01, lo23));
    store(out[1], _mm_unpacklo_epi16(hi01, hi23));
    store(out[1] + 16, _mm_unpackhi_epi16(hi01, hi23));
  }
#else
  for (std::size_t j = 0; j < 2 * kNr8; ++j) {
    for (std::size_t t = 0; t < KStep; ++t) {
      out[j / kNr8][KStep * (j % kNr8) + t] = r[t][j];
    }
  }
#endif
}

// Packs the K-tiles of w into dst, in panels nr = 8 or 16 columns wide.
// Within a tile, a block of 64 columns (one cache line of each row) is
// packed step by step: each step reads its KStep rows' lines whole (a row
// past k reads `zero`) and appends one panel row to each of the block's
// panels, so the reads stream and the writes run as sequential streams.
// Each Interleave call fills two 8-column halves: of two neighbouring
// panels when nr = 8, of one panel (the second at first + 8 KStep) when
// nr = 16.  Columns past m, up to `panels` whole panels, are zero.
template <std::size_t KStep>
void PackTiles(const MatrixI8& w, std::size_t nr, std::size_t panels,
               const std::int8_t* zero, std::int8_t* dst) {
  constexpr std::size_t block = 64;
  const std::size_t row = KStep * nr;
  const std::size_t shift = static_cast<std::size_t>(std::countr_zero(nr));
  const std::size_t width = panels * nr;
  const std::size_t k = w.rows();
  const std::size_t m = w.cols();
  for (std::size_t pc = 0; pc < k; pc += kKc8) {
    const std::size_t kc = std::min(kKc8, k - pc);
    const std::size_t steps = (kc + KStep - 1) / KStep;
    const std::size_t panel = steps * row;
    // Panel row s of the 8-column half starting at column j.
    auto half = [&](std::size_t j, std::size_t s) {
      return dst + (j >> shift) * panel + s * row + (j & (nr - 1)) * KStep;
    };
    for (std::size_t jb = 0; jb < width; jb += block) {
      const std::size_t jend = std::min(width, jb + block);
      for (std::size_t s = 0; s < steps; ++s) {
        const std::int8_t* rows[KStep];
        for (std::size_t t = 0; t < KStep; ++t) {
          const std::size_t p = s * KStep + t;
          rows[t] = p < kc ? w.row(pc + p).data() : zero;
        }
        for (std::size_t j0 = jb; j0 < jend; j0 += 2 * kNr8) {
          std::int8_t edge[KStep][2 * kNr8];
          std::int8_t sink[KStep * kNr8];  // the half past an odd last panel
          std::int8_t* out[2] = {
              half(j0, s), j0 + kNr8 < width ? half(j0 + kNr8, s) : sink};
          const std::int8_t* r[KStep];
          for (std::size_t t = 0; t < KStep; ++t) {
            r[t] = rows[t] + j0;
            if (j0 + 2 * kNr8 <= m) continue;
            std::memset(edge[t], 0, sizeof(edge[t]));
            if (j0 < m) std::memcpy(edge[t], rows[t] + j0, m - j0);
            r[t] = edge[t];
          }
          Interleave<KStep>(r, out);
        }
      }
    }
    dst += panels * panel;
  }
}

inline std::int32_t PackPair(std::int8_t lo, std::int8_t hi) {
  // Two's-complement int16 halves, lo in the low half (lane 2t of pmaddwd).
  return static_cast<std::int32_t>(
      static_cast<std::uint32_t>(static_cast<std::uint16_t>(lo)) |
      static_cast<std::uint32_t>(static_cast<std::uint16_t>(hi)) << 16);
}

inline std::int32_t PackQuad(const std::int8_t* b) {
  // Four bytes x + 128 (the sign bit flipped), b[0] in the low byte.
  std::uint32_t q;
  std::memcpy(&q, b, sizeof(q));
  return static_cast<std::int32_t>(q ^ 0x80808080u);
}

// Packs the activation steps of row tile [i0, i0 + mr) over K window
// [pc, pc + kc) step-major, kMr8 rows per step and each step repeated
// `lanes` times, zero-padding rows past mr and the K tail (a zero byte
// past the tail meets a zero weight) -- so the micro-kernel always runs
// a full kMr8-row tile.
void PackX(const Int8Variant& v, const MatrixI8& x, std::size_t i0,
           std::size_t mr, std::size_t pc, std::size_t kc, std::int32_t* dst) {
  const std::size_t steps = Steps(v, kc);
  const std::size_t full = kc / v.kstep;
  const std::size_t lanes = v.lanes;
  auto put = [dst, lanes](std::size_t s, std::size_t i, std::int32_t step) {
    std::int32_t* d = dst + (s * kMr8 + i) * lanes;
    for (std::size_t l = 0; l < lanes; ++l) d[l] = step;
  };
  for (std::size_t i = 0; i < kMr8; ++i) {
    if (i >= mr) {
      for (std::size_t s = 0; s < steps; ++s) put(s, i, 0);
      continue;
    }
    const std::int8_t* row = x.row(i0 + i).data() + pc;
    std::int8_t tail[4] = {};
    std::copy(row + full * v.kstep, row + kc, tail);
    if (v.kstep == 2) {
      for (std::size_t s = 0; s < full; ++s) {
        put(s, i, PackPair(row[2 * s], row[2 * s + 1]));
      }
      if (full < steps) put(full, i, PackPair(tail[0], tail[1]));
    } else {
      for (std::size_t s = 0; s < full; ++s) put(s, i, PackQuad(row + 4 * s));
      if (full < steps) put(full, i, PackQuad(tail));
    }
  }
}

// Adds a kMr8-row accumulator tile, `width` columns per row, into C,
// clipped to mr rows and nr columns.
inline void AddTile(const std::int32_t* tile, std::size_t width,
                    std::int32_t* c, std::size_t ldc, std::size_t mr,
                    std::size_t nr) {
  for (std::size_t i = 0; i < mr; ++i) {
    for (std::size_t j = 0; j < nr; ++j) c[i * ldc + j] += tile[i * width + j];
  }
}

#if defined(__GNUC__) || defined(__clang__)

// 128-bit K-pair kernels: a 4 x 8 tile on GNU int32 vectors, eight named
// accumulators, one 16-byte panel load widened to two int16 vectors and
// four pre-broadcast pair loads per K-pair.  The pairs are pre-broadcast
// because SSE2 has no broadcast load, and a pshufd per row would put
// another shuffle uop beside every two multiply-adds on the same vector
// ports.  The accumulators are summed with `+=`: with _mm_add_epi32 gcc
// adds into the product register and copies it back, eight extra moves per
// step.
using V4i = std::int32_t __attribute__((vector_size(16)));
using V8s = std::int16_t __attribute__((vector_size(16)));

inline V4i LoadV4i(const void* p) {
  V4i v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

// Sign-extends a panel row's 16 bytes (columns 0-3, then 4-7) to int16.
inline void WidenVector(const std::int8_t* p, V4i& lo, V4i& hi) {
  using V8c = std::int8_t __attribute__((vector_size(8)));
  V8c a, b;
  __builtin_memcpy(&a, p, sizeof(a));
  __builtin_memcpy(&b, p + sizeof(a), sizeof(b));
  lo = std::bit_cast<V4i>(__builtin_convertvector(a, V8s));
  hi = std::bit_cast<V4i>(__builtin_convertvector(b, V8s));
}

// The multiply-add in plain vector arithmetic, for any gcc/clang target.
// A product of two int8 values lies in [-16256, 16384], so one int16 lane
// multiply is exact; each int32 lane then adds its sign-extended low and
// high halves.
inline V4i MaddVector(V4i a, V4i b) {
  const auto p =
      std::bit_cast<V4i>(std::bit_cast<V8s>(a) * std::bit_cast<V8s>(b));
  return ((p << 16) >> 16) + (p >> 16);
}

#if defined(__SSE2__)
// SSE2 is baseline on every x86-64 target: sign extension by duplicating
// each byte and shifting right, and pmaddwd.
inline void WidenSse2(const std::int8_t* p, V4i& lo, V4i& hi) {
  const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  lo = std::bit_cast<V4i>(_mm_srai_epi16(_mm_unpacklo_epi8(v, v), 8));
  hi = std::bit_cast<V4i>(_mm_srai_epi16(_mm_unpackhi_epi8(v, v), 8));
}

inline V4i MaddSse2(V4i a, V4i b) {
  return std::bit_cast<V4i>(_mm_madd_epi16(std::bit_cast<__m128i>(a),
                                           std::bit_cast<__m128i>(b)));
}
#endif

template <V4i (*Madd)(V4i, V4i), void (*Widen)(const std::int8_t*, V4i&, V4i&)>
void Int8MicroKernel(std::size_t steps, const std::int32_t* xp,
                     const std::int8_t* wp, std::int32_t* c, std::size_t ldc,
                     std::size_t mr, std::size_t nr) {
  V4i c00{}, c01{}, c10{}, c11{}, c20{}, c21{}, c30{}, c31{};
  for (std::size_t s = 0; s < steps; ++s) {
    V4i b0, b1;
    Widen(wp + s * 2 * kNr8, b0, b1);
    const std::int32_t* a = xp + s * kMr8 * kLanes128;
    const V4i a0 = LoadV4i(a);
    const V4i a1 = LoadV4i(a + kLanes128);
    const V4i a2 = LoadV4i(a + 2 * kLanes128);
    const V4i a3 = LoadV4i(a + 3 * kLanes128);
    c00 += Madd(a0, b0);
    c01 += Madd(a0, b1);
    c10 += Madd(a1, b0);
    c11 += Madd(a1, b1);
    c20 += Madd(a2, b0);
    c21 += Madd(a2, b1);
    c30 += Madd(a3, b0);
    c31 += Madd(a3, b1);
  }
  const V4i acc[kMr8][2] = {{c00, c01}, {c10, c11}, {c20, c21}, {c30, c31}};
  if (mr == kMr8 && nr == kNr8) {
    for (std::size_t i = 0; i < kMr8; ++i) {
      for (std::size_t h = 0; h < 2; ++h) {
        V4i ci;
        std::memcpy(&ci, c + i * ldc + 4 * h, sizeof(ci));
        ci += acc[i][h];
        std::memcpy(c + i * ldc + 4 * h, &ci, sizeof(ci));
      }
    }
    return;
  }
  std::int32_t tile[kMr8][kNr8];
  std::memcpy(tile, acc, sizeof(tile));
  AddTile(tile[0], kNr8, c, ldc, mr, nr);
}

template <V4i (*Madd)(V4i, V4i), void (*Widen)(const std::int8_t*, V4i&, V4i&)>
void Sweep128(std::size_t steps, const std::int32_t* xp, const std::int8_t* wp,
              std::int32_t* c, std::size_t m, std::size_t mr) {
  for (std::size_t j0 = 0; j0 < m; j0 += kNr8) {
    Int8MicroKernel<Madd, Widen>(steps, xp, wp + j0 * steps * 2, c + j0, m,
                                 mr, std::min(kNr8, m - j0));
  }
}

#else

// Last-resort scalar K-pair kernel over the same packed layout (one copy
// per activation pair), for compilers without GNU vector extensions.
// Each K-pair's panel row is split into contiguous low/high int32 rows
// first, so the fixed-width j loops are unit-stride for the
// auto-vectorizer.
void SweepScalar(std::size_t steps, const std::int32_t* xp,
                 const std::int8_t* wp, std::int32_t* c, std::size_t m,
                 std::size_t mr) {
  for (std::size_t j0 = 0; j0 < m; j0 += kNr8) {
    const std::int8_t* panel = wp + j0 * steps * 2;
    std::int32_t tile[kMr8][kNr8] = {};
    for (std::size_t s = 0; s < steps; ++s) {
      const std::int8_t* b = panel + s * 2 * kNr8;
      std::int32_t blo[kNr8], bhi[kNr8];
      for (std::size_t j = 0; j < kNr8; ++j) {
        blo[j] = b[2 * j];
        bhi[j] = b[2 * j + 1];
      }
      for (std::size_t i = 0; i < kMr8; ++i) {
        const auto pair = static_cast<std::uint32_t>(xp[s * kMr8 + i]);
        const std::int32_t lo = static_cast<std::int16_t>(pair & 0xFFFFu);
        const std::int32_t hi = static_cast<std::int16_t>(pair >> 16);
        for (std::size_t j = 0; j < kNr8; ++j) {
          tile[i][j] += lo * blo[j] + hi * bhi[j];
        }
      }
    }
    AddTile(tile[0], kNr8, c + j0, m, mr, std::min(kNr8, m - j0));
  }
}

#endif

#if defined(LATTE_X86_DISPATCH)

// Write-back of a 256-bit kernel's kMr8 x (np * kNr8) tile.  Every
// 256-bit ISA below implies AVX2, so each kernel inlines it.
template <std::size_t Np>
__attribute__((target("avx2"))) inline void AddTile256(
    const std::int32_t* tile, std::int32_t* c, std::size_t ldc,
    std::size_t mr, std::size_t nr) {
  constexpr std::size_t width = Np * kNr8;
  if (mr < kMr8 || nr < width) {
    AddTile(tile, width, c, ldc, mr, nr);
    return;
  }
  for (std::size_t i = 0; i < kMr8; ++i) {
    for (std::size_t j = 0; j < width; j += kNr8) {
      auto* ci = reinterpret_cast<__m256i*>(c + i * ldc + j);
      const auto* ti = reinterpret_cast<const __m256i*>(tile + i * width + j);
      _mm256_storeu_si256(ci, _mm256_add_epi32(_mm256_loadu_si256(ci),
                                               _mm256_load_si256(ti)));
    }
  }
}

// 256-bit kernels: a 4 x (8 NP) tile, NP panels per step, in 4 NP ymm
// accumulators, with each activation step broadcast from its one packed
// copy.  The variants differ in the layout (KSTEP), the panel load (LOADW:
// a 16-byte K-pair row sign-extended to int16, or a 32-byte K-quad row),
// the multiply-accumulate (MACC: pmaddwd plus an add on AVX2, vpdpbusd on
// AVX-VNNI) and NP.  vpdpbusd accumulates in place, so AVX-VNNI takes
// three panels, twelve independent chains in sixteen registers.  AVX2
// needs a product register per step and takes two.  A target attribute
// cannot be a template argument, so one macro stamps out the body per ISA.
#define LATTE_INT8_SWEEP256(NAME, ISA, NP, KSTEP, LOADW, MACC)              \
  __attribute__((target(ISA))) void NAME(                                   \
      std::size_t steps, const std::int32_t* xp, const std::int8_t* wp,     \
      std::int32_t* c, std::size_t m, std::size_t mr) {                     \
    constexpr std::size_t np = NP;                                          \
    constexpr std::size_t row = KSTEP * kNr8;                               \
    const std::size_t panel = steps * row;                                  \
    for (std::size_t j0 = 0; j0 < m; j0 += np * kNr8) {                     \
      const std::int8_t* w = wp + j0 / kNr8 * panel;                        \
      __m256i acc[kMr8][np];                                                \
      _Pragma("GCC unroll 4") for (std::size_t i = 0; i < kMr8; ++i) {      \
        _Pragma("GCC unroll 4") for (std::size_t p = 0; p < np; ++p) {      \
          acc[i][p] = _mm256_setzero_si256();                               \
        }                                                                   \
      }                                                                     \
      for (std::size_t s = 0; s < steps; ++s) {                             \
        __m256i b[np];                                                      \
        _Pragma("GCC unroll 4") for (std::size_t p = 0; p < np; ++p) {      \
          b[p] = LOADW(w + p * panel + s * row);                            \
        }                                                                   \
        _Pragma("GCC unroll 4") for (std::size_t i = 0; i < kMr8; ++i) {    \
          const __m256i a = _mm256_set1_epi32(xp[s * kMr8 + i]);            \
          _Pragma("GCC unroll 4") for (std::size_t p = 0; p < np; ++p) {    \
            acc[i][p] = MACC(acc[i][p], a, b[p]);                           \
          }                                                                 \
        }                                                                   \
      }                                                                     \
      alignas(32) std::int32_t tile[kMr8 * np * kNr8];                      \
      _Pragma("GCC unroll 4") for (std::size_t i = 0; i < kMr8; ++i) {      \
        _Pragma("GCC unroll 4") for (std::size_t p = 0; p < np; ++p) {      \
          _mm256_store_si256(reinterpret_cast<__m256i*>(tile) + i * np + p, \
                             acc[i][p]);                                    \
        }                                                                   \
      }                                                                     \
      AddTile256<np>(tile, c + j0, m, mr, std::min(np * kNr8, m - j0));     \
    }                                                                       \
  }

__attribute__((target("avx2"))) inline __m256i LoadPairsAvx2(
    const std::int8_t* p) {
  return _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

__attribute__((target("avx2"))) inline __m256i LoadQuads(
    const std::int8_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

// The accumulate is a GNU vector add: with _mm256_add_epi32 gcc adds into
// the product register and copies it back, one extra move per product.
__attribute__((target("avx2"))) inline __m256i MaccAvx2(__m256i acc,
                                                        __m256i a, __m256i b) {
  using V8i = std::int32_t __attribute__((vector_size(32)));
  // reinterpret_cast, not std::bit_cast: a std::bit_cast instance is
  // compiled without AVX and would return a ymm value on the stack.
  return reinterpret_cast<__m256i>(
      reinterpret_cast<V8i>(acc) +
      reinterpret_cast<V8i>(_mm256_madd_epi16(a, b)));
}

// vpdpbusd: a (the activation quads) is unsigned, b (the weights) signed.
__attribute__((target("avx2,avxvnni"))) inline __m256i MaccAvxVnni(
    __m256i acc, __m256i a, __m256i b) {
  return _mm256_dpbusd_avx_epi32(acc, a, b);
}

LATTE_INT8_SWEEP256(SweepAvx2, "avx2", 2, 2, LoadPairsAvx2, MaccAvx2)
LATTE_INT8_SWEEP256(SweepAvxVnni, "avx2,avxvnni", 3, 4, LoadQuads,
                    MaccAvxVnni)
#undef LATTE_INT8_SWEEP256

// The 512-bit K-quad kernel: a 4 x 64 tile, four panels per step, each
// panel 16 columns wide so one step of it is one 64-byte zmm load.  Its
// sixteen zmm accumulators run as independent vpdpbusd chains, and each
// activation step is broadcast from its one packed copy.  An 8 x 32 tile
// timed within a few percent of it (ahead on 64- and 128-row products,
// behind on ~50-row ones); the 4-row tile keeps the row tiles, and so the
// activation steps, of the narrower kernels.  A full tile is added into
// C a zmm at a time; a tile clipped by the row or column tail goes
// through AddTile.
constexpr std::size_t kNr512 = 16;
constexpr std::size_t kNp512 = 4;

__attribute__((target("avx512f,avx512vnni"))) void SweepAvx512Vnni(
    std::size_t steps, const std::int32_t* xp, const std::int8_t* wp,
    std::int32_t* c, std::size_t m, std::size_t mr) {
  constexpr std::size_t width = kNp512 * kNr512;
  constexpr std::size_t row = 4 * kNr512;
  const std::size_t panel = steps * row;
  for (std::size_t j0 = 0; j0 < m; j0 += width) {
    const std::int8_t* w = wp + j0 / kNr512 * panel;
    __m512i acc[kMr8][kNp512];
#pragma GCC unroll 8
    for (std::size_t i = 0; i < kMr8; ++i) {
#pragma GCC unroll 4
      for (std::size_t p = 0; p < kNp512; ++p) {
        acc[i][p] = _mm512_setzero_si512();
      }
    }
    for (std::size_t s = 0; s < steps; ++s) {
      __m512i b[kNp512];
#pragma GCC unroll 4
      for (std::size_t p = 0; p < kNp512; ++p) {
        b[p] = _mm512_loadu_si512(w + p * panel + s * row);
      }
#pragma GCC unroll 8
      for (std::size_t i = 0; i < kMr8; ++i) {
        const __m512i a = _mm512_set1_epi32(xp[s * kMr8 + i]);
#pragma GCC unroll 4
        for (std::size_t p = 0; p < kNp512; ++p) {
          acc[i][p] = _mm512_dpbusd_epi32(acc[i][p], a, b[p]);
        }
      }
    }
    if (mr == kMr8 && m - j0 >= width) {
#pragma GCC unroll 8
      for (std::size_t i = 0; i < kMr8; ++i) {
#pragma GCC unroll 4
        for (std::size_t p = 0; p < kNp512; ++p) {
          std::int32_t* ci = c + i * m + j0 + p * kNr512;
          _mm512_storeu_si512(
              ci, _mm512_add_epi32(_mm512_loadu_si512(ci), acc[i][p]));
        }
      }
      continue;
    }
    alignas(64) std::int32_t tile[kMr8 * width];
#pragma GCC unroll 8
    for (std::size_t i = 0; i < kMr8; ++i) {
#pragma GCC unroll 4
      for (std::size_t p = 0; p < kNp512; ++p) {
        _mm512_store_si512(tile + (i * kNp512 + p) * kNr512, acc[i][p]);
      }
    }
    AddTile(tile, width, c + j0, m, mr, std::min(width, m - j0));
  }
}

bool HasAvx512f() { return __builtin_cpu_supports("avx512f") != 0; }

bool HasAvx2() { return __builtin_cpu_supports("avx2") != 0; }

// AVX-VNNI is CPUID leaf 7, sub-leaf 1, EAX bit 4; it needs the same OS
// register state as AVX2.  Read directly, since not every compiler's
// __builtin_cpu_supports knows the name.
bool HasAvxVnni() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  return HasAvx2() && __get_cpuid_count(7, 1, &eax, &ebx, &ecx, &edx) != 0 &&
         (eax & (1u << 4)) != 0;
}

bool HasAvx512Vnni() {
  return HasAvx512f() && __builtin_cpu_supports("avx512vnni") != 0;
}

#endif

bool Always() { return true; }

// Narrowest first; the dispatcher runs the last one the CPU supports.
const Int8Variant kInt8Variants[] = {
#if defined(__GNUC__) || defined(__clang__)
    {"portable", 2, kLanes128, kNr8, 1, Sweep128<MaddVector, WidenVector>,
     Always},
#else
    {"portable", 2, 1, kNr8, 1, SweepScalar, Always},
#endif
#if defined(__SSE2__) && (defined(__GNUC__) || defined(__clang__))
    {"sse2", 2, kLanes128, kNr8, 1, Sweep128<MaddSse2, WidenSse2>, Always},
#endif
#if defined(LATTE_X86_DISPATCH)
    {"avx2", 2, 1, kNr8, 2, SweepAvx2, HasAvx2},
    {"avxvnni", 4, 1, kNr8, 3, SweepAvxVnni, HasAvxVnni},
    {"avx512vnni", 4, 1, kNr512, kNp512, SweepAvx512Vnni, HasAvx512Vnni},
#endif
};

const std::vector<const Int8Variant*>& SupportedInt8Variants() {
  static const std::vector<const Int8Variant*> supported = [] {
#if defined(LATTE_X86_DISPATCH)
    __builtin_cpu_init();
#endif
    std::vector<const Int8Variant*> out;
    for (const Int8Variant& v : kInt8Variants) {
      if (v.supported()) out.push_back(&v);
    }
    return out;
  }();
  return supported;
}

const Int8Variant& DispatchedInt8Variant() {
  return *SupportedInt8Variants().back();
}

const Int8Variant& SupportedInt8Variant(std::string_view isa,
                                        const char* caller) {
  for (const auto* v : SupportedInt8Variants()) {
    if (isa == v->isa) return *v;
  }
  throw std::invalid_argument(std::string(caller) +
                              ": this host cannot run '" + std::string(isa) +
                              "'");
}

// x (n x k) times a W of m columns that PackWeights packed for v at
// `packed`: out starts from the column bias (K-quads) or zero, then every
// K-tile's sweep adds its product.
void RunPacked(const Int8Variant& v, const MatrixI8& x, std::size_t m,
               const std::int8_t* packed, MatrixI32& out,
               GemmScratch& scratch) {
  const std::size_t n = x.rows();
  const std::size_t k = x.cols();
  out.Resize(n, m);
  if (n == 0 || m == 0) return;
  if (v.kstep == 4) {
    for (std::size_t i = 0; i < n; ++i) {
      std::memcpy(out.row(i).data(), packed, m * sizeof(std::int32_t));
    }
  } else {
    std::fill(out.flat().begin(), out.flat().end(), 0);
  }
  if (k == 0) return;

  const std::int8_t* tile = packed + BiasBytes(v, m);
  scratch.xpack.resize(Steps(v, std::min(kKc8, k)) * kMr8 * v.lanes);
  for (std::size_t pc = 0; pc < k; pc += kKc8) {
    const std::size_t kc = std::min(kKc8, k - pc);
    // Row tiles inside the K-tile: the tile's activation steps stay in L1
    // while the packed panels stream from L2 and C is walked
    // row-contiguously (a panel-outer sweep strides C by whole rows, and
    // at m = 3072 every row maps to the same L1 set).
    for (std::size_t i0 = 0; i0 < n; i0 += kMr8) {
      const std::size_t mr = std::min(kMr8, n - i0);
      PackX(v, x, i0, mr, pc, kc, scratch.xpack.data());
      v.sweep(Steps(v, kc), scratch.xpack.data(), tile, out.row(i0).data(),
              m, mr);
    }
    tile += TileBytes(v, kc, m);
  }
}

// Packs w (k x m) into variant v's layout at dst, PackedBytes(v, k, m)
// bytes: the K-quad column bias, then the K-tiles.
void PackWeights(const Int8Variant& v, const MatrixI8& w, std::int8_t* dst) {
  const std::size_t k = w.rows();
  const std::size_t m = w.cols();
  if (m == 0) return;
  const std::size_t panels = PaddedPanels(v, m);
  const std::vector<std::int8_t> zero(m, 0);  // rows past k
  if (v.kstep == 2) {
    PackTiles<2>(w, v.nr, panels, zero.data(), dst);
    return;
  }
  // The column sums of W are the product of a row of ones with it, and
  // the variant's own sweep computes that from the packed quads while the
  // bias still reads zero: code -127 is the byte 1 after the +128 offset.
  const std::size_t bias_bytes = BiasBytes(v, m);
  std::memset(dst, 0, bias_bytes);
  PackTiles<4>(w, v.nr, panels, zero.data(), dst + bias_bytes);
  GemmScratch scratch;
  MatrixI32 sums;
  RunPacked(v, MatrixI8(1, k, -127), m, dst, sums, scratch);
  for (std::int32_t& sum : sums.flat()) sum *= -128;
  std::memcpy(dst, sums.flat().data(), m * sizeof(std::int32_t));
}

// The per-call product on a row-major W: pack it whole into the scratch,
// then run the same sweep as a pre-packed W.
void RunInt8Gemm(const Int8Variant& v, const MatrixI8& x, const MatrixI8& w,
                 MatrixI32& out, GemmScratch& scratch) {
  if (x.cols() != w.rows()) {
    throw std::invalid_argument("Int8GemmInto: inner dimensions differ");
  }
  CheckInt8K(w.rows());
  scratch.wpack.resize(PackedBytes(v, w.rows(), w.cols()));
  PackWeights(v, w, scratch.wpack.data());
  RunPacked(v, x, w.cols(), scratch.wpack.data(), out, scratch);
}

}  // namespace

GemmScratch& ThreadLocalGemmScratch() {
  thread_local GemmScratch scratch;
  return scratch;
}

const char* KernelArchName() { return DispatchedInt8Variant().isa; }

std::vector<const char*> Int8GemmIsas() {
  std::vector<const char*> isas;
  for (const auto* v : SupportedInt8Variants()) isas.push_back(v->isa);
  return isas;
}

const char* ElementwiseIsaName(ElementwiseIsa isa) {
  return isa == ElementwiseIsa::kAvx512f ? "avx512f" : "portable";
}

const std::vector<ElementwiseIsa>& ElementwiseIsas() {
  static const std::vector<ElementwiseIsa> supported = [] {
    std::vector<ElementwiseIsa> out{ElementwiseIsa::kPortable};
#if defined(LATTE_X86_DISPATCH)
    __builtin_cpu_init();
    if (HasAvx512f()) out.push_back(ElementwiseIsa::kAvx512f);
#endif
    return out;
  }();
  return supported;
}

ElementwiseIsa DispatchedElementwiseIsa() { return ElementwiseIsas().back(); }

void CheckElementwiseIsa(ElementwiseIsa isa, const char* caller) {
  const auto& isas = ElementwiseIsas();
  if (std::find(isas.begin(), isas.end(), isa) == isas.end()) {
    throw std::invalid_argument(std::string(caller) +
                                ": this host cannot run '" +
                                ElementwiseIsaName(isa) + "'");
  }
}

void MatMulInto(const MatrixF& a, const MatrixF& b, MatrixF& c,
                GemmScratch& scratch, ElementwiseIsa isa) {
  const FloatBody& body = FloatBodyFor(isa, "MatMulInto");
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("MatMulInto: inner dimensions differ");
  }
  TiledGemm(body, a, a.cols(), b.cols(), c, scratch,
            [&b](std::size_t pc, std::size_t kc, std::size_t nr, float* dst) {
              PackB(b, 0, b.cols(), pc, kc, nr, dst);
            });
}

void MatMulInto(const MatrixF& a, const MatrixF& b, MatrixF& c) {
  MatMulInto(a, b, c, ThreadLocalGemmScratch());
}

void MatMulColumnsInto(const MatrixF& a, const MatrixF& b, std::size_t col0,
                       std::size_t col1, MatrixF& c, GemmScratch& scratch,
                       ElementwiseIsa isa) {
  const FloatBody& body = FloatBodyFor(isa, "MatMulColumnsInto");
  if (a.cols() != b.rows()) {
    throw std::invalid_argument("MatMulColumnsInto: inner dimensions differ");
  }
  if (col0 > col1 || col1 > b.cols()) {
    throw std::invalid_argument("MatMulColumnsInto: column range out of bounds");
  }
  const std::size_t m = col1 - col0;
  auto pack = [&b, col0, m](std::size_t pc, std::size_t kc, std::size_t nr,
                            float* dst) {
    PackB(b, col0, m, pc, kc, nr, dst);
  };
  TiledGemm(body, a, a.cols(), m, c, scratch, pack);
}

void MatMulBTInto(const MatrixF& a, const MatrixF& b, MatrixF& c,
                  GemmScratch& scratch, ElementwiseIsa isa) {
  const FloatBody& body = FloatBodyFor(isa, "MatMulBTInto");
  if (a.cols() != b.cols()) {
    throw std::invalid_argument("MatMulBTInto: inner dimensions differ");
  }
  TiledGemm(body, a, a.cols(), b.rows(), c, scratch,
            [&b](std::size_t pc, std::size_t kc, std::size_t nr, float* dst) {
              PackBT(b, pc, kc, nr, dst);
            });
}

void MatMulBTInto(const MatrixF& a, const MatrixF& b, MatrixF& c) {
  MatMulBTInto(a, b, c, ThreadLocalGemmScratch());
}

void Int8GemmInto(const MatrixI8& x, const MatrixI8& w, MatrixI32& out,
                  GemmScratch& scratch) {
  RunInt8Gemm(DispatchedInt8Variant(), x, w, out, scratch);
}

void Int8GemmInto(const MatrixI8& x, const MatrixI8& w, MatrixI32& out) {
  Int8GemmInto(x, w, out, ThreadLocalGemmScratch());
}

void Int8GemmIntoIsa(std::string_view isa, const MatrixI8& x,
                     const MatrixI8& w, MatrixI32& out, GemmScratch& scratch) {
  RunInt8Gemm(SupportedInt8Variant(isa, "Int8GemmIntoIsa"), x, w, out,
              scratch);
}

PackedInt8Weights::PackedInt8Weights(const MatrixI8& w)
    : PackedInt8Weights(DispatchedInt8Variant().isa, w) {}

PackedInt8Weights::PackedInt8Weights(std::string_view isa, const MatrixI8& w)
    : rows_(w.rows()), cols_(w.cols()) {
  const Int8Variant& v = SupportedInt8Variant(isa, "PackedInt8Weights");
  CheckInt8K(rows_);
  variant_ = static_cast<std::size_t>(&v - kInt8Variants);
  data_.resize(PackedBytes(v, rows_, cols_));
  PackWeights(v, w, data_.data());
}

const char* PackedInt8Weights::isa() const {
  return kInt8Variants[variant_].isa;
}

void Int8GemmInto(const MatrixI8& x, const PackedInt8Weights& w,
                  MatrixI32& out, GemmScratch& scratch) {
  if (x.cols() != w.rows()) {
    throw std::invalid_argument("Int8GemmInto: inner dimensions differ");
  }
  RunPacked(kInt8Variants[w.variant_], x, w.cols(), w.data_.data(), out,
            scratch);
}

float DotProduct(std::span<const float> a, std::span<const float> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("DotProduct: length mismatch");
  }
  float s0 = 0.f, s1 = 0.f, s2 = 0.f, s3 = 0.f;
  std::size_t i = 0;
  for (; i + 4 <= a.size(); i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  float s = (s0 + s1) + (s2 + s3);
  for (; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

std::array<float, 4> DotProducts(
    std::span<const float> a, const std::array<std::span<const float>, 4>& b) {
  for (const auto& row : b) {
    if (row.size() != a.size()) {
      throw std::invalid_argument("DotProducts: length mismatch");
    }
  }
  std::array<float, 4> out;
#if defined(__GNUC__) || defined(__clang__)
  // Lane l of acc[r] is DotProduct's partial sum s_l for row r, built by
  // the same float operations in the same order.
  V4 acc[4] = {};
  std::size_t i = 0;
  for (; i + 4 <= a.size(); i += 4) {
    const V4 x = LoadV4(a.data() + i);
    for (std::size_t r = 0; r < 4; ++r) acc[r] += x * LoadV4(b[r].data() + i);
  }
  for (std::size_t r = 0; r < 4; ++r) {
    float s = (acc[r][0] + acc[r][1]) + (acc[r][2] + acc[r][3]);
    for (std::size_t t = i; t < a.size(); ++t) s += a[t] * b[r][t];
    out[r] = s;
  }
#else
  for (std::size_t r = 0; r < 4; ++r) out[r] = DotProduct(a, b[r]);
#endif
  return out;
}

}  // namespace latte
