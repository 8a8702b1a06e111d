#pragma once
// Attention candidate pre-selection ("At-Sel", Stage 1 of Fig 2(a)).
//
// Implements steps 2-4 of Fig 3: quantize Q and K to ultra-low precision,
// form the approximate score matrix Q'.K'^T, and keep the Top-k keys per
// query row.  Because quantization is monotone, the approximate scores
// preserve the rank of the exact scores well enough that the true dominant
// keys survive selection.
//
// The hardware forms the scores with the 256-entry product LUT
// (tensor/lut_multiply) and ranks them in the II=1 streaming sorter, which
// core/topk's StreamingTopK models.  SelectCandidates is the functional
// twin: the same integer scores on the exact int8 GEMM, and a counting
// select over the bounded score range (step 4) that returns exactly the
// sorter's candidates in the sorter's order, ties included, and charges the
// sorter's cycles.

#include <cstdint>

#include "core/topk.hpp"
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

/// Result of pre-selection for a whole Q block.
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

/// Runs quantized candidate pre-selection for one head.
/// q and k are full-precision (n_q x d) and (n_k x d).
/// Each row receives min(top_k, valid keys) candidates, identical to a
/// StreamingTopK fed the row's valid keys in index order, and
/// sorter_cycles counts one cycle per valid key per row.
SelectionResult SelectCandidates(const MatrixF& q, const MatrixF& k,
                                 const SelectorConfig& cfg);

/// Exact Top-k of the full-precision scores q.k^T (no quantization); the
/// oracle that fidelity metrics compare the quantized selection against.
std::vector<std::vector<std::uint32_t>> ExactTopKCandidates(
    const MatrixF& q, const MatrixF& k, std::size_t top_k);

}  // namespace latte
