#pragma once
// Per-operator cost inventory of the Transformer encoder.
//
// Everything performance-related in this repository -- the Fig 1(c)
// breakdown, Algorithm 1's operator weights W(v, s), the FPGA stage timing
// model and the CPU/GPU roofline models -- consumes the same operator list,
// so the cost of each encoder operator is written down exactly once, as a
// polynomial in the sequence length n:
//
//   value(n) = quad * n^2 + lin * n + cst
//
// Dense attention has quad != 0 for the score/softmax/context operators;
// the paper's sparse attention replaces those with O(n) operators (lin ~ k),
// which is precisely the property the length-aware scheduler relies on
// ("all operators have O(n) complexity", Section 4.2).
//
// Costs are kept in three separate currencies because the FPGA charges them
// to different resources:
//   flops         -- full-precision-equivalent MACs*2; on the FPGA each 8-bit
//                    MAC consumes one DSP slice (Section 5.2),
//   lut_ops       -- ultra-low-bit multiplies and sorter compares that map to
//                    LUT fabric, not DSPs (the Bits Selector / At-Sel path),
//   offchip_elems -- elements moved over HBM (weights streamed per layer,
//                    activations in/out, Top-k index/value round trip).

#include <cstddef>
#include <type_traits>
#include <vector>

#include "nn/encoder.hpp"

namespace latte {

/// Cost polynomial in sequence length n.
struct CostPoly {
  double quad = 0.0;
  double lin = 0.0;
  double cst = 0.0;

  double Eval(double n) const { return quad * n * n + lin * n + cst; }

  CostPoly operator+(const CostPoly& o) const {
    return {quad + o.quad, lin + o.lin, cst + o.cst};
  }
};

/// Encoder operator identities (Fig 1(a)/(b) plus the sparse additions).
enum class OpKind {
  kQkvProjection,   ///< self-attention: 3 input linear transforms
  kScoreMatMul,     ///< dense S = Q K^T                 (dense mode only)
  kScale,           ///< S *= 1/sqrt(d)                  (dense mode only)
  kMask,            ///< attention masking               (dense mode only)
  kSoftmax,         ///< row softmax                     (dense mode only)
  kContextMatMul,   ///< dense S * V                     (dense mode only)
  kAttentionSelect, ///< quantize + LUT scores + Top-k   (sparse mode only)
  kSparseScore,     ///< fused exact score/scale/mask/exp on Top-k candidates
  kSparseContext,   ///< Z = S V / sum(S) on candidates  (sparse mode only)
  kOutputProjection,///< attention output linear
  kLayerNorm1,
  kFfn1,
  kGelu,
  kFfn2,
  kLayerNorm2,
};

/// Returns a short human-readable label ("MM(QKV)", "At-Sel", ...).
const char* OpKindName(OpKind kind);

/// Which attention implementation the operator list describes.
enum class AttentionMode { kDense, kSparseTopK };

/// One encoder operator with its cost polynomials and pipeline metadata.
struct OpSpec {
  OpKind kind{};           ///< labelled by OpKindName(kind)
  CostPoly flops;          ///< DSP-class arithmetic
  CostPoly lut_ops;        ///< LUT-class arithmetic (quantized / sorting)
  CostPoly offchip_elems;  ///< HBM traffic in elements
  int stage_hint = 1;      ///< coarse stage; EncoderOps sets Fig 2(a)'s 1..3
  bool in_attention = false;  ///< member of the self-attention workflow
};
static_assert(std::is_trivially_copyable_v<OpSpec>);

/// Builds the ordered operator list of one encoder layer.
/// For kSparseTopK, `top_k` is the number of candidates kept per query row;
/// ignored in dense mode.  Operators appear in dataflow order.
std::vector<OpSpec> EncoderOps(const EncoderConfig& cfg, AttentionMode mode,
                               std::size_t top_k = 30);

/// Sum of flops over all operators at sequence length n.
double TotalFlops(const std::vector<OpSpec>& ops, double n);

/// Sum of flops over self-attention operators only (Fig 7(b) scope).
double AttentionFlops(const std::vector<OpSpec>& ops, double n);

/// Sum of off-chip traffic (elements) at sequence length n.
double TotalOffchipElems(const std::vector<OpSpec>& ops, double n);

}  // namespace latte
