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

  // Stage 1: quantized candidate pre-selection, streamed into the flat
  // candidate arrays of the scratch.
  SelectorConfig sel_cfg;
  sel_cfg.top_k = cfg.top_k;
  sel_cfg.bits = cfg.bits;
  sel_cfg.valid_len = cfg.valid_len;
  SelectCandidates(q, k, sel_cfg, scratch.select);
  const SelectScratch& sel = scratch.select;

  MatrixF out(n, v.cols());
  FusedKernelConfig fk;
  fk.scale = 1.f / std::sqrt(static_cast<float>(d));
  fk.unroll = cfg.unroll;

  std::size_t fused_cycles = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto cand = sel.candidate_row(i);
    // Stage 2.1-2.2: fused exact score computation (Fig 4) on the
    // candidate key rows, read in place.
    FusedScoreKernel(q.row(i), k, cand, fk, scratch.scores);
    fused_cycles += scratch.scores.cycles;
    // Stage 2.3: weighted context of the candidate value rows.
    WeightedContext(scratch.scores, v, cand, out.row(i));
  }

  if (stats != nullptr) {
    stats->n = n;
    stats->selected_per_row = n > 0 ? sel.per_row : 0;
    stats->lut_multiplies = sel.lut_multiplies;
    stats->sorter_cycles = sel.sorter_cycles;
    stats->fused_cycles = fused_cycles;
    stats->exact_macs = n * sel.per_row * d * 2;  // scores + context
    stats->candidates.assign(sel.candidates.begin(), sel.candidates.end());
  }
  return out;
}

AttentionFn MakeSparseAttentionFn(SparseAttentionConfig cfg) {
  return [cfg](const MatrixF& q, const MatrixF& k, const MatrixF& v,
               Workspace& ws) {
    return SparseAttention(q, k, v, cfg, nullptr, ws.attention());
  };
}

MatrixF AttentionOnCandidates(const MatrixF& q, const MatrixF& k,
                              const MatrixF& v,
                              std::span<const std::uint32_t> candidates,
                              std::size_t per_row) {
  if (candidates.size() != q.rows() * per_row) {
    throw std::invalid_argument(
        "AttentionOnCandidates: candidate count is not rows x per_row");
  }
  MatrixF out(q.rows(), v.cols());
  FusedKernelConfig fk;
  fk.scale = 1.f / std::sqrt(static_cast<float>(q.cols()));
  for (std::size_t i = 0; i < q.rows(); ++i) {
    const auto cand = candidates.subspan(i * per_row, per_row);
    const MatrixF ks = GatherRows(k, cand);
    const MatrixF vs = GatherRows(v, cand);
    const FusedScoreResult fs = FusedScoreKernel(q.row(i), ks, fk);
    const std::vector<float> z = WeightedContext(fs, vs);
    auto dst = out.row(i);
    for (std::size_t c = 0; c < z.size(); ++c) dst[c] = z[c];
  }
  return out;
}

}  // namespace latte
