#include "tensor/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>

namespace latte {

float ScalingFactor(const MatrixF& m) {
  // Eight running maxima instead of one serial chain, so the loop
  // vectorizes (strict IEEE code may not reassociate a float max itself).
  // A max is order-free and std::max skips NaN in every lane alike, so
  // the result is the same float.
  constexpr std::size_t kLanes = 8;
  float lane[kLanes] = {};
  auto flat = m.flat();
  std::size_t i = 0;
  for (; i + kLanes <= flat.size(); i += kLanes) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      lane[l] = std::max(lane[l], std::fabs(flat[i + l]));
    }
  }
  float mx = 0.f;
  for (; i < flat.size(); ++i) mx = std::max(mx, std::fabs(flat[i]));
  for (float v : lane) mx = std::max(mx, v);
  return mx;
}

int MaxCode(int bits) {
  if (bits == 1) return 1;
  return (1 << (bits - 1)) - 1;
}

namespace {

// clamp(lround(s), -qmax, qmax) for every float s, without the libm call:
// gcc vectorizes this form, and it needs no long.  s is clamped to
// +-(qmax + 1) first, so the truncating conversion stays in range and
// s - t is the exact fraction of s; the selects (not std::clamp) send a
// NaN to -(qmax + 1) instead of into an undefined conversion.  Rounding
// half away from zero then adds or subtracts one at a fraction of +-0.5.
// Unlike lround, which overflows once |s| >= 2^63, this keeps the sign.
inline std::int8_t RoundToCode(float s, int qmax) {
  const float lim = static_cast<float>(qmax + 1);
  s = s > -lim ? s : -lim;
  s = s < lim ? s : lim;
  const int t = static_cast<int>(s);
  const float frac = s - static_cast<float>(t);
  const int r = t + (frac >= 0.5f) - (frac <= -0.5f);
  return static_cast<std::int8_t>(std::clamp(r, -qmax, qmax));
}

// Quantizes src into dst at scaling factor M > 0.  The scaled value is
// (qmax / M) * x, as it always was; but when M is so small (subnormal) that
// qmax / M overflows, 0 * inf would be NaN, so x / M is taken first.
void QuantizeSpan(std::span<const float> src, std::span<std::int8_t> dst,
                  int qmax, float M) {
  const float inv = static_cast<float>(qmax) / M;
  if (std::isfinite(inv)) {
    for (std::size_t i = 0; i < src.size(); ++i) {
      dst[i] = RoundToCode(inv * src[i], qmax);
    }
  } else {
    for (std::size_t i = 0; i < src.size(); ++i) {
      dst[i] = RoundToCode(src[i] / M * static_cast<float>(qmax), qmax);
    }
  }
}

}  // namespace

std::int8_t QuantizeValue(float x, int bits, float M) {
  if (bits == 1) {
    // Sign function; hardware sign bit maps 0 to +1.
    return x < 0.f ? -1 : 1;
  }
  if (M <= 0.f) return 0;
  std::int8_t code = 0;
  QuantizeSpan({&x, 1}, {&code, 1}, MaxCode(bits), M);
  return code;
}

namespace {

// QuantizeWithScale into a reused code buffer; returns the scale.
float QuantizeWithScaleInto(const MatrixF& m, int bits, float M,
                            MatrixI8& codes) {
  if (bits != 1 && bits != 4 && bits != 8) {
    throw std::invalid_argument("Quantize: bits must be 1, 4 or 8");
  }
  auto src = m.flat();
  // ScalingFactor's max skips NaN, so a NaN would become an arbitrary
  // code and an Inf makes every code 0: reject both up front.  The flag is
  // or-ed rather than branched on so the loop still vectorizes.
  int nonfinite = 0;
  for (float x : src) nonfinite |= !std::isfinite(x);
  if (nonfinite != 0) {
    const auto bad = std::find_if_not(
        src.begin(), src.end(), [](float x) { return std::isfinite(x); });
    throw std::invalid_argument("Quantize: non-finite element at flat index " +
                                std::to_string(bad - src.begin()));
  }
  codes.Resize(m.rows(), m.cols());
  const int qmax = MaxCode(bits);
  auto dst = codes.flat();
  if (bits == 1) {
    // QuantizeValue's sign rule, written out so the loop vectorizes.
    for (std::size_t i = 0; i < src.size(); ++i) {
      dst[i] = static_cast<std::int8_t>(src[i] < 0.f ? -1 : 1);
    }
  } else if (M > 0.f) {
    QuantizeSpan(src, dst, qmax, M);
  } else {
    std::fill(dst.begin(), dst.end(), std::int8_t{0});
  }
  return (M > 0.f) ? M / static_cast<float>(qmax) : 1.f;
}

}  // namespace

QuantizedMatrix QuantizeWithScale(const MatrixF& m, int bits, float M) {
  QuantizedMatrix q;
  q.bits = bits;
  q.scale = QuantizeWithScaleInto(m, bits, M, q.codes);
  return q;
}

QuantizedMatrix Quantize(const MatrixF& m, int bits) {
  return QuantizeWithScale(m, bits, ScalingFactor(m));
}

float QuantizeInto(const MatrixF& m, int bits, MatrixI8& codes) {
  return QuantizeWithScaleInto(m, bits, ScalingFactor(m), codes);
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

}  // namespace latte
