#pragma once
// 8-bit fixed-point inference path.
//
// The paper's models are "quantized into 8 bits fixed-point representation
// without accuracy drop" (Section 5.1, ref [36]), and the FPGA datapath
// charges one DSP per 8-bit MAC.  This module provides the int8 linear
// layer (per-tensor symmetric scales, int32 accumulation) and the int8
// weight set of an encoder layer.  EncoderForward (nn/encoder.hpp) runs it
// through the same layer body as the float weights, so every projection/FFN
// matmul is int8, matching what the hardware executes, while LayerNorm,
// softmax and GELU stay in float, as they do on the FPGA's dedicated units.

#include "nn/encoder.hpp"
#include "tensor/kernels.hpp"
#include "tensor/quantize.hpp"

namespace latte {

/// Linear layer with int8 weights and per-tensor activation quantization.
/// The weight codes are packed once, at load, into the panel layout the
/// dispatched int8 micro-kernel reads, the way the accelerator loads its
/// weights once into the MAC array's on-chip layout; the pack replaces the
/// row-major codes, so the layer holds the same bytes.
struct QuantizedLinear {
  PackedInt8Weights weight;  ///< (in x out) 8-bit codes, packed
  float scale = 1.f;         ///< weight dequantization step: w ~= code * scale
  std::vector<float> bias;   ///< float bias, applied after dequantization

  /// Quantizes an existing float layer (weights to 8-bit) and packs the
  /// codes.  Throws std::invalid_argument for a non-finite weight or more
  /// than kInt8GemmMaxK input features.
  static QuantizedLinear FromFloat(const Linear& l);

  /// y = dequant(quant8(x) * Wq) + bias.  Activations are quantized with
  /// a per-call symmetric scale; accumulation is exact int32.  Thin
  /// allocating shim over ForwardInto on the calling thread's scratch
  /// (identical bits).
  MatrixF Forward(const MatrixF& x) const;

  /// Writes y into `out` (resized, fully overwritten).  x's codes go to
  /// `scratch.xcodes`, the int32 product to `scratch.acc` and the int8
  /// GEMM's activation steps to `scratch.xpack` (a Workspace's
  /// `ws.gemm()` on hot paths); W is never re-packed, so at steady-state
  /// shapes a call allocates nothing but `out`.  `out` must not alias `x`.
  void ForwardInto(const MatrixF& x, GemmScratch& scratch, MatrixF& out) const;

  /// The same from input codes already quantized to 8 bits with
  /// QuantizeInto (`xscale` is its return value), so one quantization can
  /// feed several layers (Q, K and V).  `xcodes` may be `scratch.xcodes`.
  void ForwardInto(const MatrixI8& xcodes, float xscale, GemmScratch& scratch,
                   MatrixF& out) const;

  std::size_t in_features() const { return weight.rows(); }
  std::size_t out_features() const { return weight.cols(); }
};

/// All encoder parameters with matmul weights in int8.
struct QuantizedEncoderWeights {
  QuantizedLinear wq, wk, wv, wo, ffn1, ffn2;
  std::vector<float> ln1_gamma, ln1_beta, ln2_gamma, ln2_beta;

  static QuantizedEncoderWeights FromFloat(const EncoderWeights& w);
};

}  // namespace latte
