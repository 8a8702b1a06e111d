#pragma once
// Lane-generic building blocks for the library's elementwise float bodies:
// GELU (nn/ops.cpp), quantize and the int8 dequant epilogue
// (tensor/quantize.cpp) and the request-embedding normal generator
// (workload/synthetic.cpp).  Private to the library; not part of the API.
//
// A body is written once, as a template over its lane type F: a plain
// float, four lanes (V4, GNU vectors on the baseline ISA) or sixteen (V16,
// instantiated only inside a target("avx512f") function).  Every helper
// here, and every helper a body calls, is always_inline: a template
// instance inlined into an AVX-512 function is compiled for AVX-512, where
// an out-of-line V16 instance would be baseline code that passes a 512-bit
// vector through memory.  The files that hold bodies are compiled with
// -ffp-contract=off, so no instance fuses a multiply and an add: each lane
// rounds every operation as written, and the bodies give the same bits at
// any width.  (They also take -Wno-psabi: gcc notes every V16 signature,
// though each one is inlined into its AVX-512 caller.)

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "tensor/kernels.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define LATTE_LANES_INLINE [[gnu::always_inline]] inline
#define LATTE_LANES_VECTOR 1
#if defined(__x86_64__) || defined(__i386__)
// x86 with a compiler that takes target(): the library's wider bodies
// exist and are picked at run time (tensor/kernels.cpp).
#define LATTE_X86_DISPATCH 1
#endif
#else
#define LATTE_LANES_INLINE inline
#endif

namespace latte {

/// Throws std::invalid_argument naming `caller` unless this host can run
/// `isa` (defined in tensor/kernels.cpp, beside the dispatch).
void CheckElementwiseIsa(ElementwiseIsa isa, const char* caller);

}  // namespace latte

namespace latte::lanes {

#if defined(LATTE_LANES_VECTOR)
using V4 = float __attribute__((vector_size(16)));
using V4i = std::int32_t __attribute__((vector_size(16)));
using V4b = std::int8_t __attribute__((vector_size(4)));
using V16 = float __attribute__((vector_size(64)));
using V16i = std::int32_t __attribute__((vector_size(64)));
using V16b = std::int8_t __attribute__((vector_size(16)));

// A vector compare already yields -1 / 0 per lane.  A template, so that
// only instances that run inside a target("avx512f") function take a
// 512-bit vector; a bool takes the overload below.
template <class I>
LATTE_LANES_INLINE I Mask(I m) { return m; }

using Portable = V4;  ///< the lane type of the portable body
#else
using Portable = float;
#endif

LATTE_LANES_INLINE std::int32_t Mask(bool b) {
  return -static_cast<std::int32_t>(b);
}

/// The int32 lane type matching F (what a compare of two F yields).
template <class F>
using Int = decltype(Mask(F{} < F{}));

/// Lanes in F, a float or int32 lane type.
template <class F>
inline constexpr std::size_t kLanes = sizeof(F) / 4;

template <class To, class From>
LATTE_LANES_INLINE To BitCast(From x) {
#if defined(LATTE_LANES_VECTOR)
  return __builtin_bit_cast(To, x);
#else
  return std::bit_cast<To>(x);
#endif
}

/// m ? a : b lane by lane, for an all-ones / all-zeros mask m.
template <class F>
LATTE_LANES_INLINE F Select(Int<F> m, F a, F b) {
  return BitCast<F>((m & BitCast<Int<F>>(a)) | (~m & BitCast<Int<F>>(b)));
}

/// Lane-wise value conversion (float -> int32 truncates, as a cast does).
template <class To, class From>
LATTE_LANES_INLINE To Convert(From x) {
  if constexpr (std::is_arithmetic_v<From>) {
    return static_cast<To>(x);
  } else {
#if defined(LATTE_LANES_VECTOR)
    return __builtin_convertvector(x, To);
#endif
  }
}

/// int32 lanes narrowed to int8 (the values must fit).
template <class I>
LATTE_LANES_INLINE auto ToBytes(I x) {
  if constexpr (std::is_arithmetic_v<I>) {
    return static_cast<std::int8_t>(x);
#if defined(__SSE2__) && defined(LATTE_LANES_VECTOR)
  } else if constexpr (std::is_same_v<I, V4i>) {
    // SSE2 has no truncating narrow, and gcc would extract the lanes one
    // by one; two saturating packs give the same bytes for values that
    // fit.
    const __m128i w = _mm_packs_epi32(BitCast<__m128i>(x), __m128i{});
    return BitCast<V4b>(_mm_cvtsi128_si32(_mm_packs_epi16(w, w)));
#endif
  } else {
#if defined(LATTE_LANES_VECTOR)
    return __builtin_convertvector(
        x, std::conditional_t<kLanes<I> == 4, V4b, V16b>);
#endif
  }
}

/// IEEE square root of each lane, correctly rounded at any width.  A lane
/// loop over the scalar builtin: in a file compiled with -fno-math-errno
/// the compiler emits one vector square root for it (sqrtps, or vsqrtps
/// on a zmm register inside a target("avx512f") function); with errno it
/// stays per lane, with the same bits.
template <class F>
LATTE_LANES_INLINE F Sqrt(F x) {
  if constexpr (std::is_arithmetic_v<F>) {
    return std::sqrt(x);
  } else {
    for (std::size_t i = 0; i < kLanes<F>; ++i) x[i] = __builtin_sqrtf(x[i]);
    return x;
  }
}

/// The first n elements of an F read from p (whole by default); the lanes
/// past n are zero, which is how a body runs a row's tail.
template <class F, class E>
LATTE_LANES_INLINE F Load(const E* p,
                          std::size_t n = sizeof(F) / sizeof(E)) {
  F x{};
  std::memcpy(&x, p, n * sizeof(E));
  return x;
}

/// Writes the first n elements of x (whole by default) to p.
template <class E, class F>
LATTE_LANES_INLINE void Store(E* p, F x,
                              std::size_t n = sizeof(F) / sizeof(E)) {
  std::memcpy(p, &x, n * sizeof(E));
}

}  // namespace latte::lanes
