#pragma once
// Attention candidate pre-selection ("At-Sel", Stage 1 of Fig 2(a)).
//
// Implements steps 2-4 of Fig 3: quantize Q and K to ultra-low precision,
// form the approximate scores Q'.K'^T, and keep the Top-k keys per query
// row.  Because quantization is monotone, the approximate scores preserve
// the rank of the exact scores well enough that the true dominant keys
// survive selection.
//
// The hardware forms the scores with the 256-entry product LUT
// (tensor/lut_multiply) and streams them into the II=1 sorter, which
// core/topk's StreamingTopK models; no n x n score matrix ever exists.
// SelectCandidates is the functional twin and streams the same way: K's
// codes are packed once per head, each strip of kSelectStripRows query
// rows is scored against them on the exact int8 GEMM, and every row of
// the strip is selected while its scores are still in cache.  The select
// counts over the bounded score range (step 4) and returns exactly the
// sorter's candidates in the sorter's order, ties included, and charges
// the sorter's cycles.

#include <cstdint>
#include <span>

#include "core/topk.hpp"
#include "tensor/kernels.hpp"
#include "tensor/lut_multiply.hpp"
#include "tensor/quantize.hpp"

namespace latte {

/// Configuration of the pre-selection path.
struct SelectorConfig {
  std::size_t top_k = 30;  ///< candidates kept per query row
  int bits = 1;            ///< Q/K quantization width: 1 (sign) or 4
  /// Number of valid (non-padding) keys; keys at index >= valid_len are
  /// never selected.  0 means every key is valid.  Used when a padded
  /// block must still compute correctly (Fig 1(b) masking).
  std::size_t valid_len = 0;
};

/// Query rows scored per int8 GEMM call: a strip's int32 scores (32 rows
/// x n keys, 128 KiB at n = 1024) stay in L2 while its rows are selected.
inline constexpr std::size_t kSelectStripRows = 32;

/// At-Sel's flat result and reusable buffers for one thread.  Every
/// buffer grows without shrinking, so a scratch reused at one shape
/// allocates only the per-head pack of K.  SparseAttention keeps one in
/// each AttentionScratch (so in each Workspace slot).
struct SelectScratch {
  /// Candidates per query row: min(top_k, valid keys).
  std::size_t per_row = 0;
  /// n_q x per_row key indices, row-major: row i is sorted by decreasing
  /// approximate score, ties toward the smaller key index.
  std::vector<std::uint32_t> candidates;
  /// The approximate (quantized) scores matching `candidates`.
  std::vector<std::int32_t> approx_scores;
  std::size_t lut_multiplies = 0;  ///< n_q * n_k * d
  std::size_t sorter_cycles = 0;   ///< one per valid key per row

  MatrixI8 qcodes, kcodes;  ///< Q and K codes
  MatrixI8 kt;              ///< the valid keys' codes transposed (d x n)
  PackedInt8Weights kpack;  ///< kt packed, once per head
  MatrixI8 qstrip;          ///< one strip's query codes
  MatrixI32 strip;          ///< the strip's scores against every valid key
  GemmScratch gemm;         ///< the strip product's activation steps
  std::vector<std::uint32_t> hist;  ///< a row's histogram banks
  std::vector<std::uint32_t> keep;  ///< a row's keys at or above the cut

  /// Row i's candidates, and their approximate scores.
  std::span<const std::uint32_t> candidate_row(std::size_t i) const {
    return {candidates.data() + i * per_row, per_row};
  }
  std::span<const std::int32_t> score_row(std::size_t i) const {
    return {approx_scores.data() + i * per_row, per_row};
  }

  std::size_t CapacityBytes() const;
};

/// Result of pre-selection for a whole Q block, one vector per row.
struct SelectionResult {
  /// candidates[i] = selected key indices for query row i, sorted by
  /// decreasing approximate score (ties toward the smaller key index).
  std::vector<std::vector<std::uint32_t>> candidates;
  /// Approximate (quantized) scores matching `candidates`, for diagnostics.
  std::vector<std::vector<std::int32_t>> approx_scores;
  /// LUT multiply count consumed (n_q * n_k * d).
  std::size_t lut_multiplies = 0;
  /// Sorter cycles consumed (one per streamed element).
  std::size_t sorter_cycles = 0;
};

/// Runs quantized candidate pre-selection for one head into `out`.
/// q and k are full-precision (n_q x d) and (n_k x d).
/// Each row receives min(top_k, valid keys) candidates, identical to a
/// StreamingTopK fed the row's valid keys in index order, and
/// sorter_cycles counts one cycle per valid key per row.  Throws
/// std::invalid_argument on a head-dim mismatch, top_k == 0 or bits other
/// than 1 and 4, and std::logic_error if a row's scores span more than the
/// codes allow (2 * MaxCode(bits)^2 * d).
void SelectCandidates(const MatrixF& q, const MatrixF& k,
                      const SelectorConfig& cfg, SelectScratch& out);

/// As above, returned one vector per row (a function-local scratch).
SelectionResult SelectCandidates(const MatrixF& q, const MatrixF& k,
                                 const SelectorConfig& cfg);

/// Exact Top-k of the full-precision scores q.k^T (no quantization); the
/// oracle that fidelity metrics compare the quantized selection against.
std::vector<std::vector<std::uint32_t>> ExactTopKCandidates(
    const MatrixF& q, const MatrixF& k, std::size_t top_k);

}  // namespace latte
