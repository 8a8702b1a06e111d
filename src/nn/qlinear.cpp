#include "nn/qlinear.hpp"

#include <stdexcept>

#include "nn/attention.hpp"
#include "nn/ops.hpp"
#include "tensor/kernels.hpp"
#include "tensor/matmul.hpp"

namespace latte {

QuantizedLinear QuantizedLinear::FromFloat(const Linear& l) {
  QuantizedLinear q;
  q.weight = Quantize(l.weight, 8);
  q.bias = l.bias;
  return q;
}

MatrixF QuantizedLinear::Forward(const MatrixF& x,
                                 GemmScratch& scratch) const {
  if (x.cols() != in_features()) {
    throw std::invalid_argument("QuantizedLinear: input width mismatch");
  }
  const QuantizedMatrix xq = Quantize(x, 8);
  const float out_scale = xq.scale * weight.scale;

  // Packed K-pair int8 GEMM with exact int32 accumulation -- the same
  // arithmetic one DSP slice performs per MAC.  A 16-bit multiply-add sums
  // two int8 products (at most 2 * 128^2, no overflow) and integer
  // addition is associative, so the result is the naive loop's bit for bit.
  MatrixI32 acc;
  Int8GemmInto(xq.codes, weight.codes, acc, scratch);

  MatrixF y(x.rows(), out_features());
  for (std::size_t i = 0; i < y.rows(); ++i) {
    auto ai = acc.row(i);
    auto yi = y.row(i);
    for (std::size_t j = 0; j < yi.size(); ++j) {
      yi[j] = static_cast<float>(ai[j]) * out_scale;
    }
  }
  if (!bias.empty()) AddBiasInPlace(y, bias);
  return y;
}

MatrixF QuantizedLinear::Forward(const MatrixF& x) const {
  return Forward(x, ThreadLocalGemmScratch());
}

QuantizedEncoderWeights QuantizedEncoderWeights::FromFloat(
    const EncoderWeights& w) {
  QuantizedEncoderWeights q;
  q.wq = QuantizedLinear::FromFloat(w.wq);
  q.wk = QuantizedLinear::FromFloat(w.wk);
  q.wv = QuantizedLinear::FromFloat(w.wv);
  q.wo = QuantizedLinear::FromFloat(w.wo);
  q.ffn1 = QuantizedLinear::FromFloat(w.ffn1);
  q.ffn2 = QuantizedLinear::FromFloat(w.ffn2);
  q.ln1_gamma = w.ln1_gamma;
  q.ln1_beta = w.ln1_beta;
  q.ln2_gamma = w.ln2_gamma;
  q.ln2_beta = w.ln2_beta;
  return q;
}

MatrixF QuantizedEncoderForward(const MatrixF& x,
                                const QuantizedEncoderWeights& w,
                                const EncoderConfig& cfg,
                                const AttentionFn& attn, GemmScratch& scratch) {
  if (x.cols() != cfg.hidden) {
    throw std::invalid_argument(
        "QuantizedEncoderForward: input width != hidden");
  }
  const MatrixF q = w.wq.Forward(x, scratch);
  const MatrixF k = w.wk.Forward(x, scratch);
  const MatrixF v = w.wv.Forward(x, scratch);

  const auto qh = SplitHeads(q, cfg.heads);
  const auto kh = SplitHeads(k, cfg.heads);
  const auto vh = SplitHeads(v, cfg.heads);
  std::vector<MatrixF> ctx;
  ctx.reserve(cfg.heads);
  for (std::size_t h = 0; h < cfg.heads; ++h) {
    ctx.push_back(attn(qh[h], kh[h], vh[h]));
  }
  MatrixF a = w.wo.Forward(ConcatHeads(ctx), scratch);

  MatrixF x1 = Add(x, a);
  LayerNormInPlace(x1, w.ln1_gamma, w.ln1_beta);

  MatrixF f = w.ffn1.Forward(x1, scratch);
  GeluInPlace(f);
  f = w.ffn2.Forward(f, scratch);

  MatrixF out = Add(x1, f);
  LayerNormInPlace(out, w.ln2_gamma, w.ln2_beta);
  return out;
}

MatrixF QuantizedEncoderForward(const MatrixF& x,
                                const QuantizedEncoderWeights& w,
                                const EncoderConfig& cfg,
                                const AttentionFn& attn) {
  return QuantizedEncoderForward(x, w, cfg, attn, ThreadLocalGemmScratch());
}

}  // namespace latte
