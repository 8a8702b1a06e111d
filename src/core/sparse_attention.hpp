#pragma once
// The paper's primary contribution: length-linear sparse attention via
// quantized candidate pre-selection (Section 3).
//
// Pipeline per head (Fig 3):
//   1. quantize Q, K to 1- or 4-bit codes              (Stage 1, At-Sel)
//   2. approximate scores Q'.K'^T via product LUT      (Stage 1, At-Sel)
//   3. streaming Top-k per query row                   (Stage 1, At-Sel)
//      (steps 2-3 are the hardware model; the functional twin computes the
//      same scores on the exact int8 GEMM and the same Top-k, ties and
//      sorter cycles included, by a counting select -- see
//      core/candidate_selector.hpp)
//   4. gather Ks/Vs candidates                         (Stage 2.1, load)
//   5. fused exact score + scale + mask + exp          (Stage 2.2, Fig 4)
//   6. Z = S.V / sum(S)                                (Stage 2.3)
//
// Complexity: O(n * k * d) full-precision work instead of O(n^2 * d); the
// remaining O(n^2 * d) pre-selection runs on 1-bit codes in LUT fabric.

#include "core/candidate_selector.hpp"
#include "core/fused_kernel.hpp"
#include "nn/attention.hpp"

namespace latte {

/// Configuration of the sparse attention operator.
struct SparseAttentionConfig {
  std::size_t top_k = 30;  ///< candidates per query (k <= n degenerates dense)
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
  std::size_t selected_per_row = 0; ///< mean candidates per query row
  std::size_t lut_multiplies = 0;   ///< quantized score LUT work
  std::size_t sorter_cycles = 0;    ///< streaming Top-k cycles
  std::size_t fused_cycles = 0;     ///< Stage 2.2 cycles
  std::size_t exact_macs = 0;       ///< full-precision MACs (score + context)
  /// Candidates per query row, for fidelity metrics.
  std::vector<std::vector<std::uint32_t>> candidates;
};

/// Reusable scratch for the Stage 2 hot loop: gather buffers for the
/// candidate K/V rows, the fused-kernel score result and the context row.
/// One scratch serves one thread; the batch runtime keeps one per worker
/// (wrapped in a runtime::Workspace) so repeated SparseAttention calls do
/// zero heap allocation once the buffers have grown to steady state.
struct AttentionScratch {
  MatrixF ks;               ///< gathered candidate keys, (top_k x d)
  MatrixF vs;               ///< gathered candidate values, (top_k x d_v)
  FusedScoreResult scores;  ///< fused-kernel output, reused per row
  std::vector<float> ctx;   ///< context row, length d_v

  /// Grows `ctx` to `d_v` without shrinking (capacity is sticky).
  void ReserveContext(std::size_t d_v) {
    if (ctx.size() < d_v) ctx.resize(d_v);
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
/// per-row temporary (gathered K/V blocks, exp-score buffer, context row)
/// lives in `scratch` and is reused across rows and across calls.  This is
/// the operator the batched execution runtime drives.
MatrixF SparseAttention(const MatrixF& q, const MatrixF& k, const MatrixF& v,
                        const SparseAttentionConfig& cfg,
                        SparseAttentionStats* stats,
                        AttentionScratch& scratch);

/// Gathers the candidate rows of `src` into `out`, resizing it to
/// (|idx| x src.cols()) while reusing its allocation (Stage 2.1 load).
void GatherRowsInto(const MatrixF& src, std::span<const std::uint32_t> idx,
                    MatrixF& out);

/// Adapts SparseAttention to the encoder's pluggable AttentionFn; each call
/// leases its per-row temporaries from `ws.attention()`.
AttentionFn MakeSparseAttentionFn(SparseAttentionConfig cfg);

/// Dense attention restricted to a given candidate set (oracle for tests:
/// sparse attention with exact Top-k candidates must match this).
MatrixF AttentionOnCandidates(
    const MatrixF& q, const MatrixF& k, const MatrixF& v,
    const std::vector<std::vector<std::uint32_t>>& candidates);

}  // namespace latte
