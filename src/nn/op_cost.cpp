#include "nn/op_cost.hpp"

namespace latte {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kQkvProjection:    return "MM(QKV)";
    case OpKind::kScoreMatMul:      return "MM(QK^T)";
    case OpKind::kScale:            return "Scale";
    case OpKind::kMask:             return "Mask";
    case OpKind::kSoftmax:          return "Softmax";
    case OpKind::kContextMatMul:    return "MM(SV)";
    case OpKind::kAttentionSelect:  return "At-Sel";
    case OpKind::kSparseScore:      return "At-Score";
    case OpKind::kSparseContext:    return "At-Ctx";
    case OpKind::kOutputProjection: return "MM(out)";
    case OpKind::kLayerNorm1:       return "LayerNorm1";
    case OpKind::kFfn1:             return "MM(FFN1)";
    case OpKind::kGelu:             return "GELU";
    case OpKind::kFfn2:             return "MM(FFN2)";
    case OpKind::kLayerNorm2:       return "LayerNorm2";
  }
  return "?";
}

std::vector<OpSpec> EncoderOps(const EncoderConfig& cfg, AttentionMode mode,
                               std::size_t top_k) {
  const double h = static_cast<double>(cfg.hidden);
  const double H = static_cast<double>(cfg.heads);
  const double f = static_cast<double>(cfg.ffn());
  const double k = static_cast<double>(top_k);

  std::vector<OpSpec> ops;

  // --- Stage 1: linear transformation (+ At-Sel in sparse mode) -----------
  {
    OpSpec s;
    s.kind = OpKind::kQkvProjection;
    s.flops.lin = 6.0 * h * h;               // 3 matmuls, 2nh^2 each
    s.offchip_elems.cst = 3.0 * h * h;       // stream Wq|Wk|Wv once per layer
    s.offchip_elems.lin = 4.0 * h;           // read X, write Q,K,V
    s.stage_hint = 1;
    // Fig 7(b)'s "self-attention computation" covers the score..context
    // portion (the O(n^2) part), not the QKV/output projections.
    s.in_attention = false;
    ops.push_back(std::move(s));
  }

  if (mode == AttentionMode::kDense) {
    OpSpec sc;
    sc.kind = OpKind::kScoreMatMul;
    sc.flops.quad = 2.0 * h;                 // n^2 * d * 2 per head * H
    sc.offchip_elems.quad = H;               // materialize S (n^2 per head)
    sc.stage_hint = 2;
    sc.in_attention = true;
    ops.push_back(std::move(sc));

    OpSpec scale;
    scale.kind = OpKind::kScale;
    scale.flops.quad = H;                    // one mult per score element
    scale.stage_hint = 2;
    scale.in_attention = true;
    ops.push_back(std::move(scale));

    OpSpec mask;
    mask.kind = OpKind::kMask;
    mask.flops.quad = H;
    mask.stage_hint = 2;
    mask.in_attention = true;
    ops.push_back(std::move(mask));

    OpSpec sm;
    sm.kind = OpKind::kSoftmax;
    sm.flops.quad = 5.0 * H;                 // exp + 2 reduces + div per elem
    sm.stage_hint = 2;
    sm.in_attention = true;
    ops.push_back(std::move(sm));

    OpSpec cm;
    cm.kind = OpKind::kContextMatMul;
    cm.flops.quad = 2.0 * h;                 // n^2 * d * 2 per head * H
    cm.offchip_elems.quad = H;               // re-read S
    cm.stage_hint = 2;
    cm.in_attention = true;
    ops.push_back(std::move(cm));
  } else {
    // At-Sel: quantize Q,K (flops), LUT score matrix + streaming Top-k sort
    // (LUT fabric), Top-k (index, value) pairs round-trip through HBM
    // (Section 4.1: "Top-k results are stored back to HBM for inter-stage
    // buffering").
    OpSpec sel;
    sel.kind = OpKind::kAttentionSelect;
    sel.flops.lin = 2.0 * h;                 // quantize Q and K rows
    sel.lut_ops.quad = h + H;                // Q'K'^T (n^2 d H = n^2 h) + sort
    sel.offchip_elems.lin = 2.0 * k * H;     // write (idx,val) per query/head
    sel.stage_hint = 1;
    sel.in_attention = true;
    ops.push_back(std::move(sel));

    // Stage 2.2: fused exact score computation on the k candidates:
    // dot products + scale + mask + exp in one II=1 loop (Fig 4).
    OpSpec ss;
    ss.kind = OpKind::kSparseScore;
    ss.flops.lin = 2.0 * k * h + 7.0 * k * H;  // n*k*d*2*H + fused tail ops
    ss.offchip_elems.lin = 2.0 * k * H;        // read Top-k pairs from HBM
    ss.stage_hint = 2;
    ss.in_attention = true;
    ops.push_back(std::move(ss));

    // Stage 2.3: Z_i = S_i V / sum(S_i) on the candidates.
    OpSpec sctx;
    sctx.kind = OpKind::kSparseContext;
    sctx.flops.lin = 2.0 * k * h + h;          // n*k*d*2*H + normalize
    sctx.offchip_elems.lin = 2.0 * h;          // K,V rows into on-chip buffer
    sctx.stage_hint = 2;
    sctx.in_attention = true;
    ops.push_back(std::move(sctx));
  }

  {
    OpSpec o;
    o.kind = OpKind::kOutputProjection;
    o.flops.lin = 2.0 * h * h;
    o.offchip_elems.cst = h * h;
    o.offchip_elems.lin = 2.0 * h;
    o.stage_hint = 2;
    o.in_attention = false;  // projection, outside the Fig 7(b) scope
    ops.push_back(std::move(o));
  }

  // --- Stage 3: feedforward ------------------------------------------------
  {
    OpSpec ln1;
    ln1.kind = OpKind::kLayerNorm1;
    ln1.flops.lin = 8.0 * h;  // mean, var, normalize, affine
    ln1.stage_hint = 3;
    ops.push_back(std::move(ln1));

    OpSpec f1;
    f1.kind = OpKind::kFfn1;
    f1.flops.lin = 2.0 * h * f;
    f1.offchip_elems.cst = h * f;
    f1.offchip_elems.lin = h + f;
    f1.stage_hint = 3;
    ops.push_back(std::move(f1));

    OpSpec g;
    g.kind = OpKind::kGelu;
    g.flops.lin = 10.0 * f;  // tanh-approx polynomial per element
    g.stage_hint = 3;
    ops.push_back(std::move(g));

    OpSpec f2;
    f2.kind = OpKind::kFfn2;
    f2.flops.lin = 2.0 * h * f;
    f2.offchip_elems.cst = h * f;
    f2.offchip_elems.lin = h + f;
    f2.stage_hint = 3;
    ops.push_back(std::move(f2));

    OpSpec ln2;
    ln2.kind = OpKind::kLayerNorm2;
    ln2.flops.lin = 8.0 * h;
    ln2.stage_hint = 3;
    ops.push_back(std::move(ln2));
  }

  return ops;
}

double TotalFlops(const std::vector<OpSpec>& ops, double n) {
  double acc = 0.0;
  for (const auto& op : ops) acc += op.flops.Eval(n);
  return acc;
}

double AttentionFlops(const std::vector<OpSpec>& ops, double n) {
  double acc = 0.0;
  for (const auto& op : ops) {
    if (op.in_attention) acc += op.flops.Eval(n);
  }
  return acc;
}

double TotalOffchipElems(const std::vector<OpSpec>& ops, double n) {
  double acc = 0.0;
  for (const auto& op : ops) acc += op.offchip_elems.Eval(n);
  return acc;
}

}  // namespace latte
