#include "workload/synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "tensor/lanes.hpp"

namespace latte {
namespace {

using lanes::Int;
using lanes::Mask;
using lanes::Select;

// Words of the generator drawn per block; a block yields twice as many
// normals.
constexpr std::size_t kNormalWords = 16;

/// Adds +-max|x|/255 uniform perturbation, emulating 8-bit fixed-point
/// storage of the tensor.
void QuantPerturbInPlace(Rng& rng, MatrixF& m) {
  float mx = 0.f;
  for (float x : m.flat()) mx = std::max(mx, std::fabs(x));
  const double amp = 1.0 / 255.0 * mx;
  for (auto& x : m.flat()) {
    x += static_cast<float>(rng.NextUniform(-amp, amp));
  }
}

// ln(x) for a positive normal x, without libm: the musl / FreeBSD logf.
// x = 2^k (1 + f) with 1 + f in [sqrt(2)/2, sqrt(2)), found from the bits;
// with s = f / (2 + f), ln(1 + f) = f - f^2/2 + s (f^2/2 + R(s^2)), R a
// degree-8 even polynomial in s (error below 2^-34), and k ln2 is added
// in two parts so that k * kLn2Hi is exact.  ln(1) = +0.
template <class F>
LATTE_LANES_INLINE F LogLanes(F x) {
  constexpr std::int32_t kOne = 0x3f800000;       // bits of 1.0f
  constexpr std::int32_t kSqrtHalf = 0x3f3504f3;  // bits of sqrt(2)/2
  constexpr float kLn2Hi = 6.9313812256e-01f;
  constexpr float kLn2Lo = 9.0580006145e-06f;
  Int<F> ix = lanes::BitCast<Int<F>>(x) + (kOne - kSqrtHalf);
  const F k = lanes::Convert<F>((ix >> 23) - 0x7f);
  ix = (ix & 0x007fffff) + kSqrtHalf;
  const F f = lanes::BitCast<F>(ix) - 1.f;
  const F s = f / (2.f + f);
  const F z = s * s;
  const F w = z * z;
  const F t1 = w * (0.40000972152f + w * 0.24279078841f);
  const F t2 = z * (0.66666662693f + w * 0.28498786688f);
  const F hfsq = 0.5f * f * f;
  return s * (hfsq + (t2 + t1)) + k * kLn2Lo - hfsq + f + k * kLn2Hi;
}

// Normals from kLanes<F> words of one block: hi and mid hold bits 40..63
// and 8..31 of each word.  u1 = (hi + 1) 2^-24 lies in (0, 1], so
// r = sqrt(-2 ln u1) is finite and at most sqrt(48 ln 2).  theta =
// 2 pi mid 2^-24 = (q + x) pi/2 is reduced exactly, in integers: q is
// mid / 2^22 rounded to the nearest (0..4) and x = mid 2^-22 - q lies in
// [-1/2, 1/2).  sin and cos of x pi/2 (|x pi/2| <= pi/4) are Taylor
// polynomials in x, truncated below 2e-9 relative, and the quarter turn
// q swaps and negates them.  Writes r cos theta to cos_out and
// r sin theta to sin_out.
template <class F>
LATTE_LANES_INLINE void NormalLanes(const std::int32_t* hi,
                                    const std::int32_t* mid, float* cos_out,
                                    float* sin_out) {
  using I = Int<F>;
  const F u1 = lanes::Convert<F>(lanes::Load<I>(hi) + 1) * 0x1p-24f;
  const F r = lanes::Sqrt(-2.f * LogLanes(u1));
  const I m = lanes::Load<I>(mid);
  const I q = (m + (1 << 21)) >> 22;
  const F x = lanes::Convert<F>(m - (q << 22)) * 0x1p-22f;
  const F z = x * x;
  F sn = 1.60441181e-4f * z - 4.68175393e-3f;
  sn = sn * z + 0.0796926245f;
  sn = sn * z - 0.645964086f;
  sn = (sn * z + 1.57079637f) * x;
  F cs = -2.52020418e-5f * z + 9.19260259e-4f;
  cs = cs * z - 0.0208634809f;
  cs = cs * z + 0.253669500f;
  cs = cs * z - 1.23370051f;
  cs = cs * z + 1.f;
  const I odd = Mask((q & 1) != 0);
  const F c = Select(odd, sn, cs);
  const F s = Select(odd, cs, sn);
  lanes::Store(cos_out, r * Select(Mask(((q + 1) & 2) != 0), -c, c));
  lanes::Store(sin_out, r * Select(Mask((q & 2) != 0), -s, s));
}

// Fills n floats at p from the normal stream: block b draws kNormalWords
// words and writes outputs 2 kNormalWords b + j (the cosines) and
// 2 kNormalWords b + kNormalWords + j (the sines); a tail block draws all
// its words.  Blocks are drawn kChunkBlocks at a time, so that their
// independent dependency chains (a divide and a square root each)
// overlap.
template <class F>
LATTE_LANES_INLINE void NormalSpan(Rng& rng, float* p, std::size_t n) {
  constexpr std::size_t kBlock = 2 * kNormalWords;
  constexpr std::size_t kChunkBlocks = 4;
  for (std::size_t i = 0; i < n; i += kChunkBlocks * kBlock) {
    const std::size_t words =
        std::min(kChunkBlocks, (n - i + kBlock - 1) / kBlock) * kNormalWords;
    std::int32_t hi[kChunkBlocks * kNormalWords];
    std::int32_t mid[kChunkBlocks * kNormalWords];
    for (std::size_t j = 0; j < words; ++j) {
      const std::uint64_t w = rng.NextU64();
      hi[j] = static_cast<std::int32_t>(w >> 40);
      mid[j] = static_cast<std::int32_t>((w >> 8) & 0xFFFFFF);
    }
    float out[kChunkBlocks * kBlock];
    for (std::size_t g = 0; g < words; g += lanes::kLanes<F>) {
      float* cos_out = out + g / kNormalWords * kBlock + g % kNormalWords;
      NormalLanes<F>(hi + g, mid + g, cos_out, cos_out + kNormalWords);
    }
    std::memcpy(p + i, out, std::min(n - i, 2 * words) * sizeof(float));
  }
}

#if defined(LATTE_X86_DISPATCH)
__attribute__((target("avx512f"))) void NormalSpanAvx512(Rng& rng, float* p,
                                                         std::size_t n) {
  NormalSpan<lanes::V16>(rng, p, n);
}
#endif

}  // namespace

AttentionProblem GenerateAttentionProblem(Rng& rng, std::size_t n,
                                          const AttentionWorkloadConfig& cfg) {
  const std::size_t d = cfg.head_dim;
  AttentionProblem p;
  p.k = rng.NormalMatrix(n, d, 0.0, 1.0);
  p.v = rng.NormalMatrix(n, d, 0.0, 1.0);
  p.q = MatrixF(n, d);

  const std::size_t m = std::min<std::size_t>(cfg.dominant_keys, n);
  for (std::size_t i = 0; i < n; ++i) {
    auto qi = p.q.row(i);
    // Isotropic noise component.
    for (auto& x : qi) {
      x = static_cast<float>(rng.NextNormal(0.0, 1.0));
    }
    // Aligned component: geometric mixture of m random key directions.
    double w = cfg.signal;
    for (std::size_t t = 0; t < m; ++t) {
      const std::size_t j = rng.NextIndex(n);
      auto kj = p.k.row(j);
      for (std::size_t c = 0; c < d; ++c) {
        qi[c] += static_cast<float>(w) * kj[c];
      }
      w *= cfg.decay;
    }
  }

  QuantPerturbInPlace(rng, p.q);
  QuantPerturbInPlace(rng, p.k);
  QuantPerturbInPlace(rng, p.v);
  return p;
}

AttentionWorkloadConfig WorkloadForDataset(const DatasetSpec& spec,
                                           std::size_t head_dim) {
  AttentionWorkloadConfig cfg;
  cfg.head_dim = head_dim;
  if (spec.name.rfind("SQuAD", 0) == 0) {
    // QA: long contexts, attention focuses on answer-span tokens.
    cfg.dominant_keys = 10;
    cfg.signal = 1.3;
    cfg.decay = 0.75;
  } else if (spec.name == "RTE") {
    cfg.dominant_keys = 8;
    cfg.signal = 1.15;
    cfg.decay = 0.7;
  } else {  // MRPC and default
    cfg.dominant_keys = 8;
    cfg.signal = 1.2;
    cfg.decay = 0.7;
  }
  return cfg;
}

MatrixF MakeInputEmbedding(Rng& rng, std::size_t n, std::size_t hidden,
                           ElementwiseIsa isa) {
  CheckElementwiseIsa(isa, "MakeInputEmbedding");
  MatrixF m(n, hidden);
  const std::span<float> v = m.flat();
#if defined(LATTE_X86_DISPATCH)
  if (isa == ElementwiseIsa::kAvx512f) {
    NormalSpanAvx512(rng, v.data(), v.size());
    return m;
  }
#endif
  NormalSpan<lanes::Portable>(rng, v.data(), v.size());
  return m;
}

}  // namespace latte
