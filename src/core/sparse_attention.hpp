#pragma once
// The paper's primary contribution: length-linear sparse attention via
// quantized candidate pre-selection (Section 3).
//
// Pipeline per head (Fig 3):
//   1. quantize Q, K to 1- or 4-bit codes              (Stage 1, At-Sel)
//   2. approximate scores Q'.K'^T via product LUT      (Stage 1, At-Sel)
//   3. streaming Top-k per query row                   (Stage 1, At-Sel)
//      (steps 2-3 are the hardware model; the functional twin streams the
//      same way: K's codes are packed once, each strip of query rows is
//      scored on the exact int8 GEMM and selected while its scores are in
//      cache -- no n x n score matrix exists.  Same Top-k, ties and sorter
//      cycles included; see core/candidate_selector.hpp)
//   4. read the Ks/Vs candidate rows                   (Stage 2.1, load)
//   5. fused exact score + scale + exp                 (Stage 2.2, Fig 4)
//   6. Z = S.V / sum(S)                                (Stage 2.3)
//   (steps 4-6 read K and V by candidate index, in place; the gathered
//   overloads and GatherRowsInto compute the same bits from copies)
//
// Complexity: O(n * k * d) full-precision work instead of O(n^2 * d); the
// remaining O(n^2 * d) pre-selection runs on 1-bit codes in LUT fabric.

#include "core/candidate_selector.hpp"
#include "core/fused_kernel.hpp"
#include "nn/attention.hpp"

namespace latte {

/// Configuration of the sparse attention operator.
struct SparseAttentionConfig {
  std::size_t top_k = 30;  ///< candidates per query (k >= n degenerates dense)
  int bits = 1;            ///< pre-selection quantization width (1 or 4)
  unsigned unroll = 8;     ///< fused-kernel UNROLL factor (cycle model only)
  /// Padding mask: keys at index >= valid_len are never attended
  /// (0 = all keys valid).
  std::size_t valid_len = 0;
};

/// Execution statistics for one forward call.  Outside core, the inference
/// engine reads `exact_macs` and `lut_multiplies` and the fidelity metrics
/// read `candidates`; the cycle tallies are diagnostics that only tests
/// check (the timing model prices the same work from nn/op_cost).
struct SparseAttentionStats {
  std::size_t n = 0;                ///< query/key count
  /// Candidates per query row: min(top_k, valid keys), the same for every
  /// row (0 when there are no rows).
  std::size_t selected_per_row = 0;
  std::size_t lut_multiplies = 0;   ///< quantized score LUT work
  std::size_t sorter_cycles = 0;    ///< streaming Top-k cycles
  std::size_t fused_cycles = 0;     ///< Stage 2.2 cycles
  std::size_t exact_macs = 0;       ///< full-precision MACs (score + context)
  /// n x selected_per_row candidate indices, row-major, for fidelity
  /// metrics (a flat copy; its capacity is reused across calls).
  std::vector<std::uint32_t> candidates;

  /// Row i's candidates.
  std::span<const std::uint32_t> candidate_row(std::size_t i) const {
    return {candidates.data() + i * selected_per_row, selected_per_row};
  }
};

/// Reusable scratch for one head: At-Sel's buffers and flat candidate
/// arrays (`select`), the fused-kernel score result and, for callers that
/// gather candidates (GatherRowsInto and the gathered kernel overloads),
/// gather buffers and a context row.  One scratch serves one thread; the
/// batch runtime keeps one per worker (wrapped in a runtime::Workspace) so
/// repeated SparseAttention calls reuse every buffer once it has grown to
/// steady state; only the per-head pack of K is allocated anew.
struct AttentionScratch {
  SelectScratch select;     ///< Stage 1 buffers and candidates
  MatrixF ks;               ///< gathered candidate keys, (top_k x d)
  MatrixF vs;               ///< gathered candidate values, (top_k x d_v)
  FusedScoreResult scores;  ///< fused-kernel output, reused per row
  std::vector<float> ctx;   ///< context row, length d_v

  /// Grows `ctx` to `d_v` without shrinking (capacity is sticky).
  void ReserveContext(std::size_t d_v) {
    if (ctx.size() < d_v) ctx.resize(d_v);
  }

  /// Bytes held by every buffer (capacities, not live sizes).
  std::size_t CapacityBytes() const {
    return (ks.capacity() + vs.capacity() + ctx.capacity() +
            scores.exp_scores.capacity()) *
               sizeof(float) +
           select.CapacityBytes();
  }
};

/// Sparse attention for one head.
/// q, k, v are (n x d); the result is (n x d), shape-compatible with
/// DenseAttention.  If stats != nullptr the execution statistics are
/// written there.
MatrixF SparseAttention(const MatrixF& q, const MatrixF& k, const MatrixF& v,
                        const SparseAttentionConfig& cfg,
                        SparseAttentionStats* stats = nullptr);

/// Workspace variant: identical math and bit-identical output, but every
/// temporary (At-Sel's codes, strip scores and candidates, the exp-score
/// buffer) lives in `scratch` and is reused across rows and across calls.
/// This is the operator the batched execution runtime drives.
MatrixF SparseAttention(const MatrixF& q, const MatrixF& k, const MatrixF& v,
                        const SparseAttentionConfig& cfg,
                        SparseAttentionStats* stats,
                        AttentionScratch& scratch);

/// Gathers the candidate rows of `src` into `out`, resizing it to
/// (|idx| x src.cols()) while reusing its allocation (Stage 2.1 load as a
/// copy; SparseAttention reads the rows in place instead).
void GatherRowsInto(const MatrixF& src, std::span<const std::uint32_t> idx,
                    MatrixF& out);

/// Adapts SparseAttention to the encoder's pluggable AttentionFn; each call
/// leases its per-row temporaries from `ws.attention()`.
AttentionFn MakeSparseAttentionFn(SparseAttentionConfig cfg);

/// Dense attention restricted to a given candidate set, on gathered
/// copies of the candidate rows (oracle for tests: SparseAttention on its
/// own candidates must match this bit for bit).  `candidates` is q.rows()
/// x per_row indices, row-major, as in SparseAttentionStats.
MatrixF AttentionOnCandidates(const MatrixF& q, const MatrixF& k,
                              const MatrixF& v,
                              std::span<const std::uint32_t> candidates,
                              std::size_t per_row);

}  // namespace latte
