#pragma once
// Eq. 1 priorities and Algorithm 1: Encoder coarse-grained Stage Allocation.
//
// The encoder of Fig 1 is a chain at the granularity EncoderOps prices, so
// the operator list in dataflow order is the graph G = (V, E): each
// operator's one successor is the next in the list.  The priority of an
// operator is its critical path to the sink at the average sequence length
// s_avg,
//
//   P(v, s_avg) = W(v, s_avg) + P(v + 1, s_avg)                      (Eq. 1)
//
// with W(v, s) the operator's FLOPs at length s, at least 1 so that the
// ceil ratios below stay finite.  Every weight is positive, so priorities
// strictly decrease along the list and Algorithm 1's visit in decreasing
// priority is the list order.
//
// The allocator tries to add each operator to the currently open stage;
// doing so rebalances the parallelism of the operators already in that
// stage by
//
//   N'(v_j) = N(v_j) * ceil( W(v_j, s_avg) / W(v_i, s_avg) )
//
// so that heavier operators keep proportionally more lanes.  If the chip's
// DSP and LUT budgets still hold, the operator joins the stage and the
// parallelisms are committed; otherwise the stage is closed and the
// operator opens a new one with parallelism 1.
//
// The result is the operator list with each stage_hint set to its
// Algorithm 1 stage, so PartitionStages and SizeStages (fpga/timing) price
// it exactly as they price the Fig 2(a) default.  How the paper's garbled
// pseudo-code is read is noted in DESIGN.md, in the performance-twin
// section (`src/sched`, `src/fpga`, `src/platform`).

#include <cstddef>
#include <vector>

#include "fpga/resources.hpp"
#include "nn/op_cost.hpp"

namespace latte {

/// Result of Algorithm 1.
struct AllocationResult {
  /// The operators in list order, each stage_hint set to its stage
  /// (1-based): a list PartitionStages takes as it is.
  std::vector<OpSpec> ops;
  /// Committed parallelism N(v) of each operator: DSP lanes, or LUT lanes
  /// for LUT-class work (quantized pre-selection, Top-k sort).
  std::vector<double> lanes;

  /// Number of stages (the largest stage_hint; 0 for an empty list).
  std::size_t Stages() const;
  /// DSP lanes across stages.
  double TotalDsp() const;
  /// LUTs across stages: LUT-class lanes times kLutsPerLane.
  double TotalLut() const;
};

/// Eq. 1 priorities of the chain `ops` (dataflow order) at s_avg.
std::vector<double> Priorities(const std::vector<OpSpec>& ops, double s_avg);

/// Runs Algorithm 1 on the chain `ops` (dataflow order) at average sequence
/// length s_avg, packing into the DSP and LUT budgets of `spec`.
AllocationResult AllocateStages(const std::vector<OpSpec>& ops,
                                const FpgaSpec& spec, double s_avg);

}  // namespace latte
