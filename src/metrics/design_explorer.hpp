#pragma once
// Automated design-space exploration over the algorithm side of Section
// 4.2's co-design loop: Top-k and the pre-selection bit width.
//
// Each (top_k, bits) point, for bits in {1, 4}, is priced on one
// reference batch of 16 sequences by the default accelerator twin
// (RunAccelerator; the bit width moves no latency) and scored by its
// measured selection fidelity on four problems through the calibrated
// accuracy-drop model.  A point is feasible when its predicted drop fits
// the paper's < 2% accuracy budget; no resource fit is checked.  Returns the
// throughput-optimal feasible point plus the accuracy/throughput Pareto
// front that Figs 6 and 7 jointly trace.  The paper's per-stage
// replication factor R(G_k, s_i) is not explored: the twin models no
// stage replication.

#include <vector>

#include "fpga/accelerator.hpp"
#include "workload/dataset.hpp"

namespace latte {

/// One evaluated design point.
struct ExplorerPoint {
  std::size_t top_k = 30;
  int bits = 1;
  double latency_s = 0;            ///< batch latency on the reference batch
  double sequences_per_s = 0;
  double predicted_drop_pct = 0;   ///< calibrated accuracy drop
  double retained_mass = 0;        ///< measured selection fidelity
  bool feasible = true;            ///< the accuracy budget holds
};

/// Result: every evaluated point plus the chosen optimum.
struct ExplorationResult {
  std::vector<ExplorerPoint> points;  ///< all points, evaluation order
  std::size_t best_index = 0;       ///< fastest feasible point
  bool found_feasible = false;

  const ExplorerPoint& best() const { return points.at(best_index); }

  /// Pareto-optimal subset (maximize throughput, minimize drop).
  std::vector<ExplorerPoint> ParetoFront() const;
};

/// Runs the exploration for one model/dataset pair over the top-k
/// candidates.  Throws std::invalid_argument when there are none.
ExplorationResult ExploreDesign(const ModelConfig& model,
                                const DatasetSpec& dataset,
                                const std::vector<std::size_t>& k_candidates);

}  // namespace latte
