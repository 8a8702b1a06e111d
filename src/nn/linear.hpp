#pragma once
// Bias-ful linear transformation y = x W + b.

#include "tensor/kernels.hpp"
#include "tensor/matrix.hpp"
#include "tensor/rng.hpp"

namespace latte {

/// A linear layer.  Weight is (in x out) so the forward pass is a plain
/// row-major matmul; bias has length `out` (may be empty for no bias).
struct Linear {
  MatrixF weight;           ///< (in_features x out_features)
  std::vector<float> bias;  ///< length out_features, or empty

  /// y = x * weight (+ bias).  x is (n x in_features).  Thin allocating
  /// shim over ForwardInto (identical bits).
  MatrixF Forward(const MatrixF& x) const;

  /// Workspace variant: writes y into `out` (resized, fully overwritten)
  /// through the tiled GEMM, packing into `scratch`.  The batched runtime
  /// calls this with per-slot scratch so the hot path allocates nothing at
  /// steady-state shapes.  `out` must not alias `x` or `weight`.
  void ForwardInto(const MatrixF& x, GemmScratch& scratch, MatrixF& out) const;

  /// Column slice of the forward pass: out = x * weight[:, col0:col1)
  /// (+ the matching bias slice).  Bit-identical to columns [col0, col1) of
  /// ForwardInto by the MatMulColumnsInto contract, so the escalation
  /// probe can project one head without computing the rest.  `out` is
  /// resized to (n x col1-col0) and fully overwritten.
  void ForwardColumnsInto(const MatrixF& x, std::size_t col0, std::size_t col1,
                          GemmScratch& scratch, MatrixF& out) const;

  std::size_t in_features() const { return weight.rows(); }
  std::size_t out_features() const { return weight.cols(); }
};

/// Xavier-uniform initialized linear layer (deterministic given the Rng).
Linear MakeLinear(Rng& rng, std::size_t in, std::size_t out,
                  bool with_bias = true);

}  // namespace latte
