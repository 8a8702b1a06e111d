#include "tensor/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>

#include "tensor/lanes.hpp"

namespace latte {

int MaxCode(int bits) {
  if (bits == 1) return 1;
  return (1 << (bits - 1)) - 1;
}

namespace {

using lanes::Int;
using lanes::Mask;
using lanes::Portable;
using lanes::Select;

// Pass 1 of a quantize: max |x| and whether every x is finite, in one
// sweep.  The running max keeps its lane when the compare fails, so a NaN
// is skipped as std::max skips it; a max is order-free, so the result is
// the same float at any width.  Zero-padded tail lanes move neither.
struct Scan {
  float max_abs = 0.f;
  bool finite = true;
};

template <class F>
LATTE_LANES_INLINE void ScanLanes(F x, F& mx, Int<F>& bad) {
  constexpr float kMax = std::numeric_limits<float>::max();
  const F a = lanes::BitCast<F>(lanes::BitCast<Int<F>>(x) & 0x7fffffff);
  mx = Select(Mask(mx < a), a, mx);
  bad |= ~Mask(a <= kMax);  // NaN and +-inf fail the compare
}

// Two running maxima, so the compare-and-select chains overlap.
template <class F>
LATTE_LANES_INLINE Scan ScanSpan(const float* p, std::size_t n) {
  constexpr std::size_t kL = lanes::kLanes<F>;
  F mx[2] = {};
  Int<F> bad[2] = {};
  std::size_t i = 0;
  for (; i + 2 * kL <= n; i += 2 * kL) {
    ScanLanes(lanes::Load<F>(p + i), mx[0], bad[0]);
    ScanLanes(lanes::Load<F>(p + i + kL), mx[1], bad[1]);
  }
  for (; i < n; i += kL) {
    ScanLanes(lanes::Load<F>(p + i, std::min(kL, n - i)), mx[0], bad[0]);
  }
  float m[2 * kL];
  std::int32_t b[2 * kL];
  lanes::Store(m, mx[0]);
  lanes::Store(m + kL, mx[1]);
  lanes::Store(b, bad[0]);
  lanes::Store(b + kL, bad[1]);
  Scan scan;
  for (std::size_t l = 0; l < 2 * kL; ++l) {
    scan.max_abs = m[l] > scan.max_abs ? m[l] : scan.max_abs;
    scan.finite = scan.finite && b[l] == 0;
  }
  return scan;
}

// clamp(lround(s), -qmax, qmax) lane by lane, without the libm call and
// without a long.  s is clamped to +-qmax first, which rounds to the same
// code, so the truncating conversion stays in range and s - t is the exact
// fraction of s; the selects send a NaN to -qmax instead of into an
// undefined conversion.  Rounding half away from zero then adds or
// subtracts one at a fraction of +-0.5.  Unlike lround, which overflows
// once |s| >= 2^63, this keeps the sign.
template <class F>
LATTE_LANES_INLINE Int<F> RoundToCode(F s, int qmax) {
  const float lim = static_cast<float>(qmax);
  s = Select(Mask(s > -lim), s, F{} - lim);
  s = Select(Mask(s < lim), s, F{} + lim);
  const Int<F> t = lanes::Convert<Int<F>>(s);
  const F frac = s - lanes::Convert<F>(t);
  return t - Mask(frac >= 0.5f) + Mask(frac <= -0.5f);
}

// How pass 2 maps x to a code: the 1-bit sign (QuantizeValue's rule, zero
// to +1), or the scaled value (qmax / M) * x, as it always was -- but when
// M is so small (subnormal) that qmax / M overflows, 0 * inf would be NaN,
// so x / M is taken first.
enum class CodeRule { kSign, kScale, kDivide };

template <CodeRule kRule, class F>
LATTE_LANES_INLINE Int<F> CodeLanes(F x, int qmax, float inv, float M) {
  if constexpr (kRule == CodeRule::kSign) {
    return (Int<F>{} + 1) + 2 * Mask(x < 0.f);
  } else if constexpr (kRule == CodeRule::kScale) {
    return RoundToCode(inv * x, qmax);
  } else {
    return RoundToCode(x / M * static_cast<float>(qmax), qmax);
  }
}

template <CodeRule kRule, class F>
LATTE_LANES_INLINE void CodeSpan(const float* src, std::int8_t* dst,
                                 std::size_t n, int qmax, float inv,
                                 float M) {
  constexpr std::size_t kL = lanes::kLanes<F>;
  std::size_t i = 0;
  for (; i + kL <= n; i += kL) {
    const F x = lanes::Load<F>(src + i);
    lanes::Store(dst + i, lanes::ToBytes(CodeLanes<kRule>(x, qmax, inv, M)));
  }
  if (i < n) {
    const F x = lanes::Load<F>(src + i, n - i);
    lanes::Store(dst + i, lanes::ToBytes(CodeLanes<kRule>(x, qmax, inv, M)),
                 n - i);
  }
}

// The scaled codes of n floats at scaling factor M (any M but zero).
template <class F>
LATTE_LANES_INLINE void ScaledCodes(const float* src, std::int8_t* dst,
                                    std::size_t n, int qmax, float M) {
  const float inv = static_cast<float>(qmax) / M;
  if (std::isfinite(inv)) {
    CodeSpan<CodeRule::kScale, F>(src, dst, n, qmax, inv, M);
  } else {
    CodeSpan<CodeRule::kDivide, F>(src, dst, n, qmax, inv, M);
  }
}

// Pass 2 of a quantize: the b-bit codes of n floats at scaling factor M.
template <class F>
LATTE_LANES_INLINE void CodesSpan(const float* src, std::int8_t* dst,
                                  std::size_t n, int bits, float M) {
  const int qmax = MaxCode(bits);
  if (bits == 1) {
    CodeSpan<CodeRule::kSign, F>(src, dst, n, qmax, 0.f, M);
  } else if (M > 0.f) {
    ScaledCodes<F>(src, dst, n, qmax, M);
  } else {
    std::fill_n(dst, n, std::int8_t{0});
  }
}

// out = float(acc) * scale, then + bias (when kBias), over the n lanes of
// F from column j; n < kLanes<F> in a row's tail.
template <bool kBias, class F>
LATTE_LANES_INLINE void DequantLanes(const std::int32_t* acc,
                                     const float* bias, float* out,
                                     std::size_t j, std::size_t n,
                                     float scale) {
  F y = lanes::Convert<F>(lanes::Load<Int<F>>(acc + j, n)) * scale;
  if constexpr (kBias) y = y + lanes::Load<F>(bias + j, n);
  lanes::Store(out + j, y, n);
}

template <bool kBias, class F>
LATTE_LANES_INLINE void DequantRow(const std::int32_t* acc, const float* bias,
                                   float* out, std::size_t n, float scale) {
  constexpr std::size_t kL = lanes::kLanes<F>;
  std::size_t j = 0;
  for (; j + kL <= n; j += kL) {
    DequantLanes<kBias, F>(acc, bias, out, j, kL, scale);
  }
  if (j < n) DequantLanes<kBias, F>(acc, bias, out, j, n - j, scale);
}

template <class F>
LATTE_LANES_INLINE void DequantRows(const std::int32_t* acc, const float* bias,
                                    float* out, std::size_t rows,
                                    std::size_t cols, float scale) {
  for (std::size_t i = 0; i < rows; ++i) {
    if (bias != nullptr) {
      DequantRow<true, F>(acc + i * cols, bias, out + i * cols, cols, scale);
    } else {
      DequantRow<false, F>(acc + i * cols, bias, out + i * cols, cols, scale);
    }
  }
}

#if defined(LATTE_X86_DISPATCH)
__attribute__((target("avx512f"))) Scan ScanAvx512(const float* p,
                                                   std::size_t n) {
  return ScanSpan<lanes::V16>(p, n);
}

__attribute__((target("avx512f"))) void CodesAvx512(const float* src,
                                                    std::int8_t* dst,
                                                    std::size_t n, int bits,
                                                    float M) {
  CodesSpan<lanes::V16>(src, dst, n, bits, M);
}

__attribute__((target("avx512f"))) void DequantAvx512(
    const std::int32_t* acc, const float* bias, float* out, std::size_t rows,
    std::size_t cols, float scale) {
  DequantRows<lanes::V16>(acc, bias, out, rows, cols, scale);
}
#endif

Scan ScanFloats(std::span<const float> src, ElementwiseIsa isa) {
#if defined(LATTE_X86_DISPATCH)
  if (isa == ElementwiseIsa::kAvx512f) {
    return ScanAvx512(src.data(), src.size());
  }
#endif
  return ScanSpan<Portable>(src.data(), src.size());
}

// Checks the bit width, then runs pass 1 and returns max |x|.  Only when
// pass 1 saw a non-finite element does a second scan find the first one,
// for the error: ScalingFactor's max skips NaN, so a NaN would become an
// arbitrary code and an Inf makes every code 0.
float CheckedMaxAbs(const MatrixF& m, int bits, ElementwiseIsa isa) {
  if (bits != 1 && bits != 4 && bits != 8) {
    throw std::invalid_argument("Quantize: bits must be 1, 4 or 8");
  }
  const auto src = m.flat();
  const Scan scan = ScanFloats(src, isa);
  if (!scan.finite) {
    const auto bad = std::find_if_not(
        src.begin(), src.end(), [](float x) { return std::isfinite(x); });
    throw std::invalid_argument("Quantize: non-finite element at flat index " +
                                std::to_string(bad - src.begin()));
  }
  return scan.max_abs;
}

// Pass 2 into a reused code buffer; returns the scale.
float WriteCodes(const MatrixF& m, int bits, float M, MatrixI8& codes,
                 ElementwiseIsa isa) {
  codes.Resize(m.rows(), m.cols());
  const float* src = m.flat().data();
  std::int8_t* dst = codes.flat().data();
  const float scale = M > 0.f ? M / static_cast<float>(MaxCode(bits)) : 1.f;
#if defined(LATTE_X86_DISPATCH)
  if (isa == ElementwiseIsa::kAvx512f) {
    CodesAvx512(src, dst, m.size(), bits, M);
    return scale;
  }
#endif
  CodesSpan<Portable>(src, dst, m.size(), bits, M);
  return scale;
}

}  // namespace

float ScalingFactor(const MatrixF& m) {
  return ScanFloats(m.flat(), DispatchedElementwiseIsa()).max_abs;
}

std::int8_t QuantizeValue(float x, int bits, float M) {
  if (bits == 1) {
    // Sign function; hardware sign bit maps 0 to +1.
    return x < 0.f ? -1 : 1;
  }
  if (M <= 0.f) return 0;
  std::int8_t code = 0;
  ScaledCodes<float>(&x, &code, 1, MaxCode(bits), M);
  return code;
}

QuantizedMatrix QuantizeWithScale(const MatrixF& m, int bits, float M) {
  const ElementwiseIsa isa = DispatchedElementwiseIsa();
  CheckedMaxAbs(m, bits, isa);
  QuantizedMatrix q;
  q.bits = bits;
  q.scale = WriteCodes(m, bits, M, q.codes, isa);
  return q;
}

QuantizedMatrix Quantize(const MatrixF& m, int bits) {
  QuantizedMatrix q;
  q.bits = bits;
  q.scale = QuantizeInto(m, bits, q.codes);
  return q;
}

float QuantizeInto(const MatrixF& m, int bits, MatrixI8& codes,
                   ElementwiseIsa isa) {
  CheckElementwiseIsa(isa, "QuantizeInto");
  return WriteCodes(m, bits, CheckedMaxAbs(m, bits, isa), codes, isa);
}

MatrixF Dequantize(const QuantizedMatrix& q) {
  MatrixF m(q.codes.rows(), q.codes.cols());
  auto src = q.codes.flat();
  auto dst = m.flat();
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst[i] = static_cast<float>(src[i]) * q.scale;
  }
  return m;
}

void DequantizeInto(const MatrixI32& acc, float scale,
                    std::span<const float> bias, MatrixF& out,
                    ElementwiseIsa isa) {
  CheckElementwiseIsa(isa, "DequantizeInto");
  if (!bias.empty() && bias.size() != acc.cols()) {
    throw std::invalid_argument("DequantizeInto: bias length mismatch");
  }
  out.Resize(acc.rows(), acc.cols());
  const std::int32_t* a = acc.flat().data();
  const float* b = bias.empty() ? nullptr : bias.data();
  float* y = out.flat().data();
#if defined(LATTE_X86_DISPATCH)
  if (isa == ElementwiseIsa::kAvx512f) {
    DequantAvx512(a, b, y, acc.rows(), acc.cols(), scale);
    return;
  }
#endif
  DequantRows<Portable>(a, b, y, acc.rows(), acc.cols(), scale);
}

}  // namespace latte
