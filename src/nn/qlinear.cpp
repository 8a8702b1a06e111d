#include "nn/qlinear.hpp"

#include <stdexcept>

#include "tensor/kernels.hpp"

namespace latte {

QuantizedLinear QuantizedLinear::FromFloat(const Linear& l) {
  QuantizedLinear q;
  // The row-major codes live only until they are packed: one matrix at a
  // time, never the whole model next to its packs.
  const QuantizedMatrix codes = Quantize(l.weight, 8);
  q.weight = PackedInt8Weights(codes.codes);
  q.scale = codes.scale;
  q.bias = l.bias;
  return q;
}

MatrixF QuantizedLinear::Forward(const MatrixF& x) const {
  MatrixF y;
  ForwardInto(x, ThreadLocalGemmScratch(), y);
  return y;
}

void QuantizedLinear::ForwardInto(const MatrixF& x, GemmScratch& scratch,
                                  MatrixF& out) const {
  if (x.cols() != in_features()) {
    throw std::invalid_argument("QuantizedLinear: input width mismatch");
  }
  const float xscale = QuantizeInto(x, 8, scratch.xcodes);
  ForwardInto(scratch.xcodes, xscale, scratch, out);
}

void QuantizedLinear::ForwardInto(const MatrixI8& xcodes, float xscale,
                                  GemmScratch& scratch, MatrixF& out) const {
  if (xcodes.cols() != in_features()) {
    throw std::invalid_argument("QuantizedLinear: input width mismatch");
  }
  const float out_scale = xscale * scale;

  // Int8 GEMM on the pre-packed weights with exact int32 accumulation --
  // the same arithmetic one DSP slice performs per MAC, so the result is
  // the naive loop's bit for bit.
  MatrixI32& acc = scratch.acc;
  Int8GemmInto(xcodes, weight, acc, scratch);

  DequantizeInto(acc, out_scale, bias, out);
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

}  // namespace latte
