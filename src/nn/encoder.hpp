#pragma once
// One Transformer encoder layer (Fig 1(a) of the paper), with the attention
// operator pluggable so the dense reference and the sparse operator can be
// swapped without touching the rest of the layer.  One layer body serves
// both weight sets: fp32 (`EncoderWeights`) and the FPGA's int8 datapath
// (`QuantizedEncoderWeights`, nn/qlinear.hpp).

#include "nn/attention.hpp"
#include "nn/linear.hpp"
#include "runtime/workspace.hpp"
#include "tensor/rng.hpp"

namespace latte {

/// Architectural shape of one encoder layer.
struct EncoderConfig {
  std::size_t hidden = 768;  ///< model dimension h
  std::size_t heads = 12;    ///< attention heads H (must divide hidden)
  std::size_t ffn_dim = 0;   ///< feedforward width; 0 means 4*hidden

  std::size_t head_dim() const { return hidden / heads; }
  std::size_t ffn() const { return ffn_dim == 0 ? 4 * hidden : ffn_dim; }
};

/// Learned parameters of one encoder layer.
struct EncoderWeights {
  Linear wq, wk, wv;  ///< QKV projections, (h x h)
  Linear wo;          ///< attention output projection, (h x h)
  Linear ffn1;        ///< (h x ffn)
  Linear ffn2;        ///< (ffn x h)
  std::vector<float> ln1_gamma, ln1_beta;  ///< post-attention LayerNorm
  std::vector<float> ln2_gamma, ln2_beta;  ///< post-FFN LayerNorm
};

struct QuantizedEncoderWeights;  // nn/qlinear.hpp

/// Deterministically initializes encoder weights (Xavier, LN gamma=1 beta=0).
EncoderWeights MakeEncoderWeights(Rng& rng, const EncoderConfig& cfg);

/// Full encoder layer forward pass:
///   A   = Attention(split_heads(XWq, XWk, XWv)) Wo
///   X1  = LayerNorm(X + A)
///   F   = GELU(X1 W1) W2
///   out = LayerNorm(X1 + F)
/// `attn` runs per head on `ws`; x is (n x hidden).  Every projection/FFN
/// GEMM packs into ws.gemm() and the intermediates are leased from ws's
/// reserved slots (wslots::kLayerQ..kLayerFfnOut), so their footprint does
/// not depend on the heap's history.  Outputs do not depend on the
/// Workspace's prior contents.
MatrixF EncoderForward(const MatrixF& x, const EncoderWeights& w,
                       const EncoderConfig& cfg, const AttentionFn& attn,
                       Workspace& ws);

/// The same layer with every matmul in int8 (the FPGA datapath);
/// LayerNorm, softmax and GELU stay in float.
MatrixF EncoderForward(const MatrixF& x, const QuantizedEncoderWeights& w,
                       const EncoderConfig& cfg, const AttentionFn& attn,
                       Workspace& ws);

}  // namespace latte
