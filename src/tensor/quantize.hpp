#pragma once
// Symmetric quantization as used by the paper (Section 3.2).
//
// The sparse-attention pre-selection quantizes full-precision Q and K into
// 1-bit (sign) or 4-bit integers:  x' = round((2^(b-1) - 1) / |M| * x)  where
// M is the scaling factor of the tensor (its maximum absolute value).  Both
// quantization and exp() are monotone, so quantized scores preserve the rank
// order of attention scores -- the property candidate selection relies on.

#include <cstdint>
#include <span>

#include "tensor/kernels.hpp"
#include "tensor/matrix.hpp"

namespace latte {

/// A quantized tensor: integer codes plus the scale that maps codes back to
/// (approximately) the original values: value ~= code * scale.
struct QuantizedMatrix {
  MatrixI8 codes;    ///< integer codes, each in [-(2^(b-1)-1), 2^(b-1)-1]
  float scale = 1.f; ///< dequantization step:  value ~= code * scale
  int bits = 8;      ///< bit width b (1, 4 or 8)
};

/// Returns the paper's scaling factor M for a tensor: max |x| over all
/// elements (0 for an empty/all-zero tensor).
float ScalingFactor(const MatrixF& m);

/// Symmetric b-bit quantization per Section 3.2:
///   codes = round((2^(b-1)-1) / M * x), clamped to the representable range,
/// rounding half away from zero (std::lround's rule).  At 4 and 8 bits
/// zeros map to 0 and no code takes the opposite sign of its input, also
/// when M is subnormal or the scaled value is huge.
/// For bits == 1 this degenerates to the sign function with codes in {-1,+1}
/// (zero maps to +1, matching sign-bit hardware).
/// Requires bits in {1, 4, 8}.  Throws std::invalid_argument naming the
/// first non-finite (NaN or Inf) element.
/// Two passes over m: one finds M and whether every element is finite (the
/// element is looked up only on that error path), one writes the codes.
/// Both run on the dispatched elementwise body (tensor/kernels.hpp), whose
/// lanes do the scalar arithmetic: the codes and scale are the same bits
/// at any width.
QuantizedMatrix Quantize(const MatrixF& m, int bits);

/// Quantize into a reused code buffer (resized, fully overwritten; same
/// codes, checks and errors) on the elementwise body `isa`; returns the
/// scale.  Allocates nothing once `codes` has held a matrix this large.
/// Throws std::invalid_argument also for an `isa` this host cannot run.
float QuantizeInto(const MatrixF& m, int bits, MatrixI8& codes,
                   ElementwiseIsa isa = DispatchedElementwiseIsa());

/// Quantizes with an externally supplied scaling factor M (used when Q and K
/// rows stream through hardware and M was computed over a larger tensor).
/// Same preconditions and errors as Quantize.
QuantizedMatrix QuantizeWithScale(const MatrixF& m, int bits, float M);

/// Reconstructs the float approximation codes * scale.
MatrixF Dequantize(const QuantizedMatrix& q);

/// The int8 linear layer's epilogue on an int32 product: out(i, j) =
/// float(acc(i, j)) * scale, then + bias[j] when bias is non-empty.  One
/// sweep on the elementwise body `isa`, with the two roundings of a
/// multiply pass followed by AddBiasInPlace (the library never fuses them
/// into an FMA).  out is resized and fully overwritten.  Throws
/// std::invalid_argument unless bias is empty or has acc.cols() entries,
/// and for an `isa` this host cannot run.
void DequantizeInto(const MatrixI32& acc, float scale,
                    std::span<const float> bias, MatrixF& out,
                    ElementwiseIsa isa = DispatchedElementwiseIsa());

/// Maximum representable code magnitude for a bit width: 2^(b-1)-1 (1 for b=1).
int MaxCode(int bits);

/// Quantizes a single value given scale factor M and bit width.
std::int8_t QuantizeValue(float x, int bits, float M);

}  // namespace latte
