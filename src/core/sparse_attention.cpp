#include "core/sparse_attention.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "runtime/workspace.hpp"

namespace latte {
namespace {

/// Gathers the candidate rows of `src` into a dense (|idx| x d) block
/// (Stage 2.1: data loading from the Top-k index list).
MatrixF GatherRows(const MatrixF& src, std::span<const std::uint32_t> idx) {
  MatrixF out;
  GatherRowsInto(src, idx, out);
  return out;
}

}  // namespace

void GatherRowsInto(const MatrixF& src, std::span<const std::uint32_t> idx,
                    MatrixF& out) {
  out.Resize(idx.size(), src.cols());
  for (std::size_t r = 0; r < idx.size(); ++r) {
    auto s = src.row(idx[r]);
    std::copy(s.begin(), s.end(), out.row(r).begin());
  }
}

MatrixF SparseAttention(const MatrixF& q, const MatrixF& k, const MatrixF& v,
                        const SparseAttentionConfig& cfg,
                        SparseAttentionStats* stats) {
  AttentionScratch scratch;
  return SparseAttention(q, k, v, cfg, stats, scratch);
}

MatrixF SparseAttention(const MatrixF& q, const MatrixF& k, const MatrixF& v,
                        const SparseAttentionConfig& cfg,
                        SparseAttentionStats* stats,
                        AttentionScratch& scratch) {
  if (q.cols() != k.cols() || k.rows() != v.rows()) {
    throw std::invalid_argument("SparseAttention: shape mismatch");
  }
  const std::size_t n = q.rows();
  const std::size_t d = q.cols();

  // Stage 1: quantized candidate pre-selection.
  SelectorConfig sel_cfg;
  sel_cfg.top_k = cfg.top_k;
  sel_cfg.bits = cfg.bits;
  sel_cfg.valid_len = cfg.valid_len;
  SelectionResult sel = SelectCandidates(q, k, sel_cfg);

  MatrixF out(n, v.cols());
  FusedKernelConfig fk;
  fk.scale = 1.f / std::sqrt(static_cast<float>(d));
  fk.unroll = cfg.unroll;

  scratch.ReserveContext(v.cols());
  const std::span<float> z(scratch.ctx.data(), v.cols());

  std::size_t fused_cycles = 0;
  std::size_t exact_macs = 0;
  std::size_t selected_total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& cand = sel.candidates[i];
    selected_total += cand.size();
    // Stage 2.1: gather Ks/Vs for this query row into the reused buffers.
    GatherRowsInto(k, cand, scratch.ks);
    GatherRowsInto(v, cand, scratch.vs);
    // Stage 2.2: fused exact score computation (Fig 4).
    FusedScoreKernel(q.row(i), scratch.ks, fk, scratch.scores);
    fused_cycles += scratch.scores.cycles;
    exact_macs += cand.size() * d * 2;  // scores + context
    // Stage 2.3: weighted context.
    WeightedContext(scratch.scores, scratch.vs, z);
    auto dst = out.row(i);
    for (std::size_t c = 0; c < z.size(); ++c) dst[c] = z[c];
  }

  if (stats != nullptr) {
    stats->n = n;
    stats->selected_per_row = n > 0 ? selected_total / n : 0;
    stats->lut_multiplies = sel.lut_multiplies;
    stats->sorter_cycles = sel.sorter_cycles;
    stats->fused_cycles = fused_cycles;
    stats->exact_macs = exact_macs;
    stats->candidates = std::move(sel.candidates);
  }
  return out;
}

AttentionFn MakeSparseAttentionFn(SparseAttentionConfig cfg) {
  return [cfg](const MatrixF& q, const MatrixF& k, const MatrixF& v,
               Workspace& ws) {
    return SparseAttention(q, k, v, cfg, nullptr, ws.attention());
  };
}

MatrixF AttentionOnCandidates(
    const MatrixF& q, const MatrixF& k, const MatrixF& v,
    const std::vector<std::vector<std::uint32_t>>& candidates) {
  if (candidates.size() != q.rows()) {
    throw std::invalid_argument("AttentionOnCandidates: row count mismatch");
  }
  MatrixF out(q.rows(), v.cols());
  FusedKernelConfig fk;
  fk.scale = 1.f / std::sqrt(static_cast<float>(q.cols()));
  for (std::size_t i = 0; i < q.rows(); ++i) {
    const MatrixF ks = GatherRows(k, candidates[i]);
    const MatrixF vs = GatherRows(v, candidates[i]);
    const FusedScoreResult fs = FusedScoreKernel(q.row(i), ks, fk);
    const std::vector<float> z = WeightedContext(fs, vs);
    auto dst = out.row(i);
    for (std::size_t c = 0; c < z.size(); ++c) dst[c] = z[c];
  }
  return out;
}

}  // namespace latte
