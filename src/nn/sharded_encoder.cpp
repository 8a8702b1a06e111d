#include "nn/sharded_encoder.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "nn/ops.hpp"
#include "tensor/matmul.hpp"

namespace latte {
namespace {

// Writes `src` into dst columns [col0, col0 + src.cols()).  This copy is
// the in-process stand-in for the all-gather: shards own disjoint column
// ranges, so concurrent copies never touch the same element.
void CopyColumnsInto(const MatrixF& src, std::size_t col0, MatrixF& dst) {
  for (std::size_t r = 0; r < src.rows(); ++r) {
    const auto row = src.row(r);
    std::copy(row.begin(), row.end(), dst.row(r).begin() + col0);
  }
}

void ValidateAgainstPlan(const MatrixF& x, const EncoderConfig& cfg,
                         const ShardPlan& plan, const ShardExecutor& exec) {
  if (x.cols() != cfg.hidden) {
    throw std::invalid_argument("ShardedEncoderForward: input width != hidden");
  }
  if (plan.shards != exec.shards()) {
    throw std::invalid_argument(
        "ShardedEncoderForward: plan degree != executor gang size");
  }
  if (plan.heads.size() != plan.shards ||
      plan.ffn_cols.size() != plan.shards ||
      plan.hidden_cols.size() != plan.shards) {
    throw std::invalid_argument("ShardedEncoderForward: malformed plan axes");
  }
  if (plan.heads.back().end != cfg.heads ||
      plan.ffn_cols.back().end != cfg.ffn() ||
      plan.hidden_cols.back().end != cfg.hidden) {
    throw std::invalid_argument(
        "ShardedEncoderForward: plan does not cover the layer shape");
  }
}

}  // namespace

MatrixF ShardedEncoderForward(const MatrixF& x, const EncoderWeights& w,
                              const EncoderConfig& cfg, const ShardPlan& plan,
                              const AttentionFn& attn,
                              ShardExecutor& exec) {
  ValidateAgainstPlan(x, cfg, plan, exec);
  const std::size_t n = x.rows();
  const std::size_t d = cfg.head_dim();
  Workspace& comm = exec.comm();

  // All comm buffers are leased between stages, from this thread: inside
  // a stage shards only read them and write disjoint element ranges.
  MatrixF& ctx_all = comm.Float(shardslots::kCtx, n, cfg.hidden);
  MatrixF& attn_out = comm.Float(shardslots::kAttnOut, n, cfg.hidden);

  // Head-parallel QKV + attention: shard s projects only the columns of
  // its head group (bit-exact column slices of the full projections),
  // runs attention per owned head, and "all-gathers" the contexts by
  // copying them into its column range of ctx_all.
  exec.RunStage([&](std::size_t s, Workspace& ws) {
    const std::size_t nh = plan.heads[s].size();
    if (nh == 0) return;
    const ShardRange hc = plan.HeadCols(s, cfg);
    GemmScratch& gs = ws.gemm();
    MatrixF& q = ws.Float(wslots::kEncoderQ, n, hc.size());
    MatrixF& k = ws.Float(wslots::kEncoderK, n, hc.size());
    MatrixF& v = ws.Float(wslots::kEncoderV, n, hc.size());
    w.wq.ForwardColumnsInto(x, hc.begin, hc.end, gs, q);
    w.wk.ForwardColumnsInto(x, hc.begin, hc.end, gs, k);
    w.wv.ForwardColumnsInto(x, hc.begin, hc.end, gs, v);
    const auto qh = SplitHeads(q, nh);
    const auto kh = SplitHeads(k, nh);
    const auto vh = SplitHeads(v, nh);
    for (std::size_t h = 0; h < nh; ++h) {
      const MatrixF c = attn(qh[h], kh[h], vh[h], ws);
      CopyColumnsInto(c, (plan.heads[s].begin + h) * d, ctx_all);
    }
  });

  // Column-parallel output projection over the gathered context.
  exec.RunStage([&](std::size_t s, Workspace& ws) {
    const ShardRange hc = plan.hidden_cols[s];
    if (hc.size() == 0) return;
    MatrixF& a = ws.Float(wslots::kEncoderAttn, n, hc.size());
    w.wo.ForwardColumnsInto(ctx_all, hc.begin, hc.end, ws.gemm(), a);
    CopyColumnsInto(a, hc.begin, attn_out);
  });

  // Serial residual + LayerNorm, exactly as the unsharded encoder.
  MatrixF& x1 = comm.Float(shardslots::kX1, n, cfg.hidden);
  AddInto(x, attn_out, x1);
  LayerNormInPlace(x1, w.ln1_gamma, w.ln1_beta);

  MatrixF& f2 = comm.Float(shardslots::kFfnOut, n, cfg.hidden);
  if (plan.row_parallel_ffn2) {
    // Row-parallel FFN2: each shard keeps its GELU slice local and emits
    // a full-width partial product; the partials are reduced here in
    // ascending shard order (fixed, so deterministic to the bit -- but
    // re-associated relative to the monolithic GEMM, hence rounding-level
    // agreement only).
    std::vector<MatrixF*> partials(plan.shards);
    for (std::size_t s = 0; s < plan.shards; ++s) {
      partials[s] = &comm.Float(shardslots::kPartialBase + s, n, cfg.hidden);
    }
    exec.RunStage([&](std::size_t s, Workspace& ws) {
      const ShardRange fc = plan.ffn_cols[s];
      GemmScratch& gs = ws.gemm();
      MatrixF& f = ws.Float(wslots::kEncoderFfn, n, fc.size());
      w.ffn1.ForwardColumnsInto(x1, fc.begin, fc.end, gs, f);
      GeluInPlace(f);
      // An empty FFN range still emits an (exactly zero) partial.
      MatMulRowsInto(f, w.ffn2.weight, fc.begin, fc.end, *partials[s], gs);
    });
    exec.ReducePartialsInto(n, cfg.hidden, f2);
    if (!w.ffn2.bias.empty()) AddBiasInPlace(f2, w.ffn2.bias);
  } else {
    // Column-parallel FFN: gather the GELU activation, then slice FFN2's
    // output columns -- both GEMMs bit-exact against the monolithic pass.
    MatrixF& f_all = comm.Float(shardslots::kFfn, n, cfg.ffn());
    exec.RunStage([&](std::size_t s, Workspace& ws) {
      const ShardRange fc = plan.ffn_cols[s];
      if (fc.size() == 0) return;
      MatrixF& f = ws.Float(wslots::kEncoderFfn, n, fc.size());
      w.ffn1.ForwardColumnsInto(x1, fc.begin, fc.end, ws.gemm(), f);
      GeluInPlace(f);
      CopyColumnsInto(f, fc.begin, f_all);
    });
    exec.RunStage([&](std::size_t s, Workspace& ws) {
      const ShardRange hc = plan.hidden_cols[s];
      if (hc.size() == 0) return;
      MatrixF& o = ws.Float(wslots::kEncoderFfn2, n, hc.size());
      w.ffn2.ForwardColumnsInto(f_all, hc.begin, hc.end, ws.gemm(), o);
      CopyColumnsInto(o, hc.begin, f2);
    });
  }

  MatrixF out = Add(x1, f2);
  LayerNormInPlace(out, w.ln2_gamma, w.ln2_beta);
  return out;
}

}  // namespace latte
