#include "nn/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "tensor/lanes.hpp"

namespace latte {

void SoftmaxInPlace(std::span<float> row) {
  if (row.empty()) return;
  const float mx = *std::max_element(row.begin(), row.end());
  float sum = 0.f;
  for (auto& x : row) {
    x = std::exp(x - mx);
    sum += x;
  }
  if (sum > 0.f) {
    for (auto& x : row) x /= sum;
  }
}

void SoftmaxRowsInPlace(MatrixF& m) {
  for (std::size_t i = 0; i < m.rows(); ++i) SoftmaxInPlace(m.row(i));
}

namespace {

using lanes::Int;
using lanes::Mask;
using lanes::Select;

// exp(t) for t in [-87, 87], without libm.  Cody-Waite: t = n ln2 + r with
// n = round(t / ln2), |r| <= ln2 / 2, and ln2 split so that n * kLn2Hi is
// exact.  e^r = 1 + r + r^2 P(r), P a degree-4 fit of (e^r - 1 - r) / r^2
// at Chebyshev nodes on [-0.35, 0.35] (relative error 1.1e-8, below half
// a float ulp).  2^n is built from exponent bits: |n| <= 126 is a normal.
template <class F>
LATTE_LANES_INLINE F ExpLanes(F t) {
  // Adding 1.5 * 2^23 rounds t / ln2 to the nearest integer n, which then
  // sits in the low mantissa bits: no float-to-int conversion is needed.
  constexpr float kRound = 12582912.f;
  constexpr std::int32_t kRoundBits = 0x4B400000;  // bit pattern of kRound
  constexpr float kLog2e = 1.44269504f;
  constexpr float kLn2Hi = 0.693359375f;
  constexpr float kLn2Lo = -2.12194440e-4f;
  const F kn = t * kLog2e + kRound;
  const F n = kn - kRound;
  const F r = t - n * kLn2Hi - n * kLn2Lo;
  F p = 1.39269186e-3f * r + 8.36376660e-3f;
  p = p * r + 4.16665487e-2f;
  p = p * r + 1.66665733e-1f;
  p = p * r + 0.5f;
  const F er = p * (r * r) + r + 1.f;
  const Int<F> pow2 = (lanes::BitCast<Int<F>>(kn) - kRoundBits + 127) << 23;
  return er * lanes::BitCast<F>(pow2);
}

// GELU(x) = x / (1 + exp(-2u)), u = sqrt(2/pi) (x + 0.044715 x^3), on one
// float or a vector of lanes.  For t = -2u > 87 the exact result is below
// 2e-37 in magnitude, so it is returned as -0: that also gives
// GELU(-inf) = -0 where x / (1 + exp(87)) would be -inf.  A NaN t fails
// every compare, so the clamps send it to 87 and x = NaN divides through.
template <class F>
LATTE_LANES_INLINE F GeluLanes(F x) {
  constexpr float kMinus2C = -1.59576912f;  // -2 sqrt(2/pi)
  const F t = (x + 0.044715f * x * x * x) * kMinus2C;
  const Int<F> underflow = Mask(t > 87.f);
  F tc = Select(Mask(t < 87.f), t, F{} + 87.f);
  tc = Select(Mask(tc > -87.f), tc, F{} - 87.f);
  return Select(underflow, -F{}, x / (1.f + ExpLanes(tc)));
}

// GELU over n floats at p in vectors of F; the tail runs on zero-padded
// lanes.
template <class F>
LATTE_LANES_INLINE void GeluSpan(float* p, std::size_t n) {
  constexpr std::size_t kL = lanes::kLanes<F>;
  std::size_t i = 0;
  for (; i + kL <= n; i += kL) {
    lanes::Store(p + i, GeluLanes(lanes::Load<F>(p + i)));
  }
  if (i < n) {
    lanes::Store(p + i, GeluLanes(lanes::Load<F>(p + i, n - i)), n - i);
  }
}

#if defined(LATTE_X86_DISPATCH)
__attribute__((target("avx512f"))) void GeluSpanAvx512(float* p,
                                                       std::size_t n) {
  GeluSpan<lanes::V16>(p, n);
}
#endif

}  // namespace

float Gelu(float x) {
#if defined(LATTE_LANES_VECTOR)
  return GeluLanes(lanes::V4{x, x, x, x})[0];  // the bulk body, on a splat
#else
  return GeluLanes(x);
#endif
}

void GeluInPlace(MatrixF& m, ElementwiseIsa isa) {
  CheckElementwiseIsa(isa, "GeluInPlace");
  const std::span<float> v = m.flat();
#if defined(LATTE_X86_DISPATCH)
  if (isa == ElementwiseIsa::kAvx512f) {
    GeluSpanAvx512(v.data(), v.size());
    return;
  }
#endif
  GeluSpan<lanes::Portable>(v.data(), v.size());
}

void LayerNormInPlace(MatrixF& m, std::span<const float> gamma,
                      std::span<const float> beta, float eps) {
  if (gamma.size() != m.cols() || beta.size() != m.cols()) {
    throw std::invalid_argument("LayerNormInPlace: gamma/beta length mismatch");
  }
  for (std::size_t i = 0; i < m.rows(); ++i) {
    auto r = m.row(i);
    double mean = 0.0;
    for (float x : r) mean += x;
    mean /= static_cast<double>(r.size());
    double var = 0.0;
    for (float x : r) {
      const double d = x - mean;
      var += d * d;
    }
    var /= static_cast<double>(r.size());
    const float inv = 1.f / std::sqrt(static_cast<float>(var) + eps);
    for (std::size_t j = 0; j < r.size(); ++j) {
      r[j] = (r[j] - static_cast<float>(mean)) * inv * gamma[j] + beta[j];
    }
  }
}

}  // namespace latte
