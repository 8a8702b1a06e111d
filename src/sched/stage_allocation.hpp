#pragma once
// Algorithm 1: Encoder coarse-grained Stage Allocation.
//
// Operators are visited in decreasing Eq. 1 priority (for the encoder chain
// this coincides with dataflow order).  The allocator tries to add each
// operator to the currently open stage; doing so rebalances the parallelism
// of the operators already in that stage by
//
//   N'(v_j) = N(v_j) * ceil( W(v_j, s_avg) / W(v_i, s_avg) )
//
// so that heavier operators keep proportionally more lanes.  If the chip's
// DSP and LUT budgets still hold, the operator joins the stage and the
// parallelisms are committed; otherwise the stage is closed and the
// operator opens a new one with parallelism 1.
//
// The result is the graph's operator list with each stage_hint set to its
// Algorithm 1 stage, so PartitionStages and SizeStages (fpga/timing) price
// it exactly as they price the Fig 2(a) default.  How the paper's garbled
// pseudo-code is read is noted in DESIGN.md, in the performance-twin
// section (`src/sched`, `src/fpga`, `src/platform`).

#include <cstddef>
#include <vector>

#include "fpga/resources.hpp"
#include "sched/op_graph.hpp"

namespace latte {

/// Result of Algorithm 1.
struct AllocationResult {
  /// The graph's operators in vertex order, each stage_hint set to its
  /// stage (1-based): a list PartitionStages takes as it is.
  std::vector<OpSpec> ops;
  /// Committed parallelism N(v) of each operator: DSP lanes, or LUT lanes
  /// for LUT-class work (quantized pre-selection, Top-k sort).
  std::vector<double> lanes;

  /// Number of stages (the largest stage_hint; 0 for an empty graph).
  std::size_t Stages() const;
  /// DSP lanes across stages.
  double TotalDsp() const;
  /// LUTs across stages: LUT-class lanes times kLutsPerLane.
  double TotalLut() const;
};

/// Runs Algorithm 1 on the operator graph at average sequence length s_avg,
/// packing into the DSP and LUT budgets of `spec`.
AllocationResult AllocateStages(const OpGraph& g, const FpgaSpec& spec,
                                double s_avg);

}  // namespace latte
