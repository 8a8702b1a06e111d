#pragma once
// Elementwise / normalization operators of the Transformer encoder.

#include "tensor/kernels.hpp"
#include "tensor/matrix.hpp"

namespace latte {

/// Row-wise numerically-stable softmax (subtracts the row max).
/// Empty rows are left untouched.
void SoftmaxRowsInPlace(MatrixF& m);

/// Softmax of a single row vector, in place.
void SoftmaxInPlace(std::span<float> row);

/// GELU activation, the tanh approximation BERT ships,
///   0.5 x (1 + tanh u) = x / (1 + exp(-2u)),
///   u = sqrt(2/pi) (x + 0.044715 x^3),
/// evaluated in the second form (no 1 + tanh cancellation for negative x)
/// with a libm-free exp (Cody-Waite range reduction, a polynomial, 2^n
/// from exponent bits), one lane-generic body run four or sixteen lanes at
/// a time with the same bits (GeluInPlace).  Max abs error against a
/// double-precision GELU is 5.1e-7 on [-12, 12] (bound 1e-6; the old
/// per-element std::tanh form scored 4.3e-7).  GELU(-inf) = -0,
/// GELU(+inf) = +inf, GELU(NaN) = NaN, and every finite x gives a finite
/// result.  This is the one float op that is not libm-exact.
float Gelu(float x);

/// Applies GELU elementwise on the elementwise body `isa`, by default the
/// one this host dispatches (sixteen lanes under AVX-512F, else four).
/// Every body runs the same per-lane arithmetic, unfused, so each element
/// gets exactly Gelu's bits (the scalar call runs the four-lane body on a
/// splat).  Throws std::invalid_argument for an `isa` this host cannot run.
void GeluInPlace(MatrixF& m, ElementwiseIsa isa = DispatchedElementwiseIsa());

/// Layer normalization over the last dimension with learned gamma/beta.
/// gamma and beta must have length m.cols().  eps guards the variance.
void LayerNormInPlace(MatrixF& m, std::span<const float> gamma,
                      std::span<const float> beta, float eps = 1e-5f);

}  // namespace latte
