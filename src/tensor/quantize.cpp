#include "tensor/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace latte {

float ScalingFactor(const MatrixF& m) {
  float mx = 0.f;
  for (float x : m.flat()) mx = std::max(mx, std::fabs(x));
  return mx;
}

int MaxCode(int bits) {
  if (bits == 1) return 1;
  return (1 << (bits - 1)) - 1;
}

std::int8_t QuantizeValue(float x, int bits, float M) {
  if (bits == 1) {
    // Sign function; hardware sign bit maps 0 to +1.
    return x < 0.f ? -1 : 1;
  }
  const int qmax = MaxCode(bits);
  if (M <= 0.f) return 0;
  const float scaled = (static_cast<float>(qmax) / M) * x;
  const long r = std::lround(scaled);
  return static_cast<std::int8_t>(std::clamp<long>(r, -qmax, qmax));
}

QuantizedMatrix QuantizeWithScale(const MatrixF& m, int bits, float M) {
  if (bits != 1 && bits != 4 && bits != 8) {
    throw std::invalid_argument("Quantize: bits must be 1, 4 or 8");
  }
  QuantizedMatrix q;
  q.bits = bits;
  q.codes = MatrixI8(m.rows(), m.cols());
  const int qmax = MaxCode(bits);
  q.scale = (M > 0.f) ? M / static_cast<float>(qmax) : 1.f;
  auto src = m.flat();
  auto dst = q.codes.flat();
  // ScalingFactor's max skips NaN and lround(NaN) is unspecified, so a NaN
  // would become an arbitrary code; an Inf makes every code 0.  The flag is
  // or-ed rather than branched on so the loop still vectorizes.
  int nonfinite = 0;
  for (std::size_t i = 0; i < src.size(); ++i) {
    nonfinite |= !std::isfinite(src[i]);
    dst[i] = QuantizeValue(src[i], bits, M);
  }
  if (nonfinite != 0) {
    const auto bad = std::find_if_not(
        src.begin(), src.end(), [](float x) { return std::isfinite(x); });
    throw std::invalid_argument("Quantize: non-finite element at flat index " +
                                std::to_string(bad - src.begin()));
  }
  return q;
}

QuantizedMatrix Quantize(const MatrixF& m, int bits) {
  return QuantizeWithScale(m, bits, ScalingFactor(m));
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
