#include "nn/encoder.hpp"

#include <stdexcept>

#include "nn/ops.hpp"
#include "nn/qlinear.hpp"
#include "tensor/matmul.hpp"

namespace latte {
namespace {

// Q, K and V from one input.  The int8 overload quantizes x once for all
// three (per-tensor scale, so the codes are the ones each projection
// would compute itself).
void ProjectQkv(const MatrixF& x, const EncoderWeights& w, GemmScratch& gs,
                MatrixF& q, MatrixF& k, MatrixF& v) {
  w.wq.ForwardInto(x, gs, q);
  w.wk.ForwardInto(x, gs, k);
  w.wv.ForwardInto(x, gs, v);
}

void ProjectQkv(const MatrixF& x, const QuantizedEncoderWeights& w,
                GemmScratch& gs, MatrixF& q, MatrixF& k, MatrixF& v) {
  const float xscale = QuantizeInto(x, 8, gs.xcodes);
  w.wq.ForwardInto(gs.xcodes, xscale, gs, q);
  w.wk.ForwardInto(gs.xcodes, xscale, gs, k);
  w.wv.ForwardInto(gs.xcodes, xscale, gs, v);
}

// The one layer body: `Weights` is EncoderWeights (fp32 Linear) or
// QuantizedEncoderWeights (int8 QuantizedLinear); both expose ForwardInto.
template <class Weights>
MatrixF Layer(const MatrixF& x, const Weights& w, const EncoderConfig& cfg,
              const AttentionFn& attn, Workspace& ws) {
  if (x.cols() != cfg.hidden) {
    throw std::invalid_argument("EncoderForward: input width != hidden");
  }
  GemmScratch& gs = ws.gemm();
  const std::size_t n = x.rows();

  // Stage 1: linear transformation (MatMul unit in Fig 2(a)).
  MatrixF& q = ws.Float(wslots::kLayerQ, n, cfg.hidden);
  MatrixF& k = ws.Float(wslots::kLayerK, n, cfg.hidden);
  MatrixF& v = ws.Float(wslots::kLayerV, n, cfg.hidden);
  ProjectQkv(x, w, gs, q, k, v);

  // Stage 2: per-head attention computation.
  const auto qh = SplitHeads(q, cfg.heads);
  const auto kh = SplitHeads(k, cfg.heads);
  const auto vh = SplitHeads(v, cfg.heads);
  std::vector<MatrixF> ctx;
  ctx.reserve(cfg.heads);
  for (std::size_t h = 0; h < cfg.heads; ++h) {
    ctx.push_back(attn(qh[h], kh[h], vh[h], ws));
  }
  MatrixF& a = ws.Float(wslots::kLayerAttnOut, n, cfg.hidden);
  w.wo.ForwardInto(ConcatHeads(ctx), gs, a);

  // Residual + LayerNorm.
  MatrixF& x1 = ws.Float(wslots::kLayerResidual, n, cfg.hidden);
  AddInto(x, a, x1);
  LayerNormInPlace(x1, w.ln1_gamma, w.ln1_beta);

  // Stage 3: feedforward.
  MatrixF& f = ws.Float(wslots::kLayerFfn, n, cfg.ffn());
  w.ffn1.ForwardInto(x1, gs, f);
  GeluInPlace(f);
  MatrixF& f2 = ws.Float(wslots::kLayerFfnOut, n, cfg.hidden);
  w.ffn2.ForwardInto(f, gs, f2);

  MatrixF out = Add(x1, f2);
  LayerNormInPlace(out, w.ln2_gamma, w.ln2_beta);
  return out;
}

}  // namespace

EncoderWeights MakeEncoderWeights(Rng& rng, const EncoderConfig& cfg) {
  if (cfg.heads == 0 || cfg.hidden % cfg.heads != 0) {
    throw std::invalid_argument("EncoderConfig: heads must divide hidden");
  }
  EncoderWeights w;
  w.wq = MakeLinear(rng, cfg.hidden, cfg.hidden);
  w.wk = MakeLinear(rng, cfg.hidden, cfg.hidden);
  w.wv = MakeLinear(rng, cfg.hidden, cfg.hidden);
  w.wo = MakeLinear(rng, cfg.hidden, cfg.hidden);
  w.ffn1 = MakeLinear(rng, cfg.hidden, cfg.ffn());
  w.ffn2 = MakeLinear(rng, cfg.ffn(), cfg.hidden);
  w.ln1_gamma.assign(cfg.hidden, 1.f);
  w.ln1_beta.assign(cfg.hidden, 0.f);
  w.ln2_gamma.assign(cfg.hidden, 1.f);
  w.ln2_beta.assign(cfg.hidden, 0.f);
  return w;
}

MatrixF EncoderForward(const MatrixF& x, const EncoderWeights& w,
                       const EncoderConfig& cfg, const AttentionFn& attn,
                       Workspace& ws) {
  return Layer(x, w, cfg, attn, ws);
}

MatrixF EncoderForward(const MatrixF& x, const QuantizedEncoderWeights& w,
                       const EncoderConfig& cfg, const AttentionFn& attn,
                       Workspace& ws) {
  return Layer(x, w, cfg, attn, ws);
}

}  // namespace latte
