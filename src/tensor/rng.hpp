#pragma once
// Deterministic random number generation for workload synthesis.
//
// Every experiment in this repository must be reproducible from its seed,
// so we ship our own xoshiro256++ implementation instead of relying on
// std::mt19937 + std::normal_distribution (whose outputs are not guaranteed
// to be identical across standard library implementations).  The integer
// and uniform draws are bit-identical on every platform.  NextNormal and
// NormalMatrix run Box-Muller through libm's log, sin and cos, so their
// bits follow the C library; the request-embedding generator
// (MakeInputEmbedding, workload/synthetic.hpp) draws NextU64 words and
// evaluates its own polynomials, so its bits depend on the seed alone.

#include <bit>
#include <cstdint>

#include "tensor/matrix.hpp"

namespace latte {

/// splitmix64 finalizer: a cheap, well-distributed, platform-stable
/// 64-bit mixer.  Shared by the cache-key hashes, the Zipf identity
/// generator and the cluster's rendezvous (key-affinity) routing, which
/// all need the same "hash this integer deterministically everywhere"
/// primitive.
std::uint64_t MixHash64(std::uint64_t x);

/// xoshiro256++ PRNG (Blackman & Vigna), seeded via splitmix64.
/// Deterministic across platforms; passes BigCrush.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Next raw 64-bit value.  Inline: the normal generator
  /// (workload/synthetic) draws one word per two samples.
  std::uint64_t NextU64() {
    const std::uint64_t result = std::rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double NextUniform();

  /// Uniform double in [lo, hi).
  double NextUniform(double lo, double hi);

  /// Standard normal via Box-Muller in double on libm (deterministic
  /// pairing; the bits follow libm's log, sin and cos).
  double NextNormal();

  /// Normal with the given mean / stddev.
  double NextNormal(double mean, double stddev);

  /// Uniform integer in [0, n).  Requires n > 0.
  std::uint64_t NextIndex(std::uint64_t n);

  /// Fills a float matrix with i.i.d. N(mean, stddev) samples.
  MatrixF NormalMatrix(std::size_t rows, std::size_t cols, double mean,
                       double stddev);

  /// Fills a float matrix with i.i.d. U[lo, hi) samples.
  MatrixF UniformMatrix(std::size_t rows, std::size_t cols, double lo,
                        double hi);

 private:
  std::uint64_t s_[4];
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace latte
