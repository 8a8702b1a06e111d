#include "tensor/rng.hpp"

#include <cmath>

namespace latte {
namespace {

std::uint64_t SplitMix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t MixHash64(std::uint64_t x) {
  std::uint64_t state = x;
  return SplitMix64(state);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
}

double Rng::NextUniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::NextUniform(double lo, double hi) {
  return lo + (hi - lo) * NextUniform();
}

double Rng::NextNormal() {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; u1 is kept away from 0 so log() is finite.
  double u1 = NextUniform();
  if (u1 < 1e-300) u1 = 1e-300;
  const double u2 = NextUniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  have_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::NextNormal(double mean, double stddev) {
  return mean + stddev * NextNormal();
}

std::uint64_t Rng::NextIndex(std::uint64_t n) {
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = -n % n;
  for (;;) {
    const std::uint64_t r = NextU64();
    if (r >= threshold) return r % n;
  }
}

MatrixF Rng::NormalMatrix(std::size_t rows, std::size_t cols, double mean,
                          double stddev) {
  MatrixF m(rows, cols);
  for (auto& x : m.flat()) x = static_cast<float>(NextNormal(mean, stddev));
  return m;
}

MatrixF Rng::UniformMatrix(std::size_t rows, std::size_t cols, double lo,
                           double hi) {
  MatrixF m(rows, cols);
  for (auto& x : m.flat()) x = static_cast<float>(NextUniform(lo, hi));
  return m;
}

}  // namespace latte
