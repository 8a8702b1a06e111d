#pragma once
// Fidelity metrics of sparse attention against the dense reference.
//
// These are the mechanism behind Fig 6: how much of the true softmax mass
// the quantized Top-k selection retains, how often it recovers the exact
// Top-k keys, and how close the sparse attention output is to dense.

#include "core/sparse_attention.hpp"
#include "workload/synthetic.hpp"

namespace latte {

/// Aggregated fidelity of one attention problem instance.
struct FidelityReport {
  /// |selected ∩ exact-Top-k| / k, averaged over query rows.
  double topk_recall = 0;
  /// Mean over rows of the exact softmax probability mass covered by the
  /// selected candidates (1.0 = sparse softmax sees everything that
  /// matters).
  double retained_mass = 0;
  /// Mean row-wise cosine similarity between sparse and dense outputs.
  double output_cosine = 0;
  /// Relative Frobenius error ||sparse - dense|| / ||dense||.
  double output_rel_error = 0;
  std::size_t n = 0;
  std::size_t k_used = 0;
};

/// Runs sparse attention on the problem and scores it against the dense
/// reference.
FidelityReport EvaluateFidelity(const AttentionProblem& problem,
                                const SparseAttentionConfig& cfg);

/// Retained softmax mass of an arbitrary candidate assignment (used to
/// score oracle selections and ablations).  `candidates` is q.rows() x
/// per_row key indices, row-major, as in SparseAttentionStats; throws
/// std::invalid_argument if its size is not that.
double RetainedSoftmaxMass(const MatrixF& q, const MatrixF& k,
                           std::span<const std::uint32_t> candidates,
                           std::size_t per_row);

/// top_k -> expected accuracy lookup table, sampled from the fidelity
/// model.  This is what grounds the adaptive serving layer's per-tier
/// accuracy numbers (adapt/controller.hpp) in the paper's Fig 6 mechanism
/// instead of hand-waved constants.
struct TierAccuracyTable {
  std::vector<std::size_t> top_ks;   ///< strictly increasing
  std::vector<double> accuracies;    ///< mean output cosine per top_k
};

/// The problems BuildTopKAccuracyTable samples.
struct TierAccuracyTableConfig {
  AttentionWorkloadConfig workload;  ///< concentration (WorkloadForDataset)
};

/// Builds the lookup table: for each top_k, the mean output cosine of
/// sparse vs dense attention over the sampled problems -- three problems
/// at each of the serving regime's lengths 224, 288, 352 and 384, drawn
/// from one fixed seed.  `top_ks` may be in any order; the table is
/// returned sorted ascending.  Deterministic.
TierAccuracyTable BuildTopKAccuracyTable(const TierAccuracyTableConfig& cfg,
                                         std::vector<std::size_t> top_ks);

/// Expected accuracy at `top_k`: exact when tabulated, linearly
/// interpolated between neighbors, clamped at the ends.  Throws
/// std::invalid_argument on an empty table.
double AccuracyForTopK(const TierAccuracyTable& table, std::size_t top_k);

}  // namespace latte
