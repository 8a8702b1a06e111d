#pragma once
// Analytical stage timing model.
//
// A coarse stage processing one sequence of length n takes
//
//   T(n) = max( flops(n)   / (2 * dsp * freq),        -- DSP compute roof
//               lut_ops(n) / (lut_lanes * freq),      -- LUT fabric roof
//               bytes(n)   / sustained_hbm_share )    -- memory roof
//
// i.e. compute and communication fully overlap within a stage (Section 4.2:
// "The communication and computation are overlapped with each other through
// coarse-grained pipeline and data prefetching"); the slower of the roofs
// wins.  This is the same analytical performance model the paper uses to
// size its design.
//
// The datapath is 8-bit fixed point: one byte per element, so an
// operator's off-chip traffic in elements is its traffic in bytes.

#include <cstddef>
#include <span>
#include <vector>

#include "fpga/resources.hpp"
#include "nn/op_cost.hpp"

namespace latte {

/// Timing model of one coarse pipeline stage.
struct StageTimingModel {
  CostPoly flops;          ///< summed over member operators
  CostPoly lut_ops;
  CostPoly offchip_bytes;  ///< traffic in bytes (one byte per element)
  double dsp = 1;          ///< DSP slices granted to this stage
  double lut_lanes = 1;    ///< parallel LUT-op lanes granted
  double hbm_bytes_per_s = 1;  ///< HBM share granted
  double freq_hz = 200e6;

  /// Seconds to process one sequence of length n through this stage.
  double Seconds(double n) const;

  /// Name of the roof that sets Seconds(n): "DSP", "LUT" or "HBM" (the
  /// first of them on a tie).
  const char* BindingRoof(double n) const;
};

/// Most stages a partition holds: one per operator of the dense
/// `EncoderOps` list, so no partition of an encoder chain exceeds it.
inline constexpr std::size_t kMaxStages = 12;

/// LUTs one LUT-class lane costs: one ultra-low-bit MAC (XNOR + popcount
/// slice) or one sorter compare.  SizeStages buys FpgaSpec::lut /
/// kLutsPerLane lanes; Algorithm 1 charges its LUT lanes at this rate.
inline constexpr double kLutsPerLane = 4;

/// Partitions an operator list into unsized stage timing models: operators
/// join the stage their stage_hint (1..kMaxStages) names and each stage's
/// cost polynomials are summed in dataflow order.  `EncoderOps`' hints are
/// the Fig 2(a) partition; `AllocateStages` (sched/stage_allocation)
/// returns the same list with Algorithm 1's.  Stages no operator names are
/// dropped, so the attention-only operator list yields two stages.  Throws
/// std::out_of_range for a hint outside 1..kMaxStages.
std::vector<StageTimingModel> PartitionStages(const std::vector<OpSpec>& ops);

/// Grants partitioned stages their share of `spec` at the expected length
/// `s_avg`, in place: DSPs are split across stages proportionally to FLOPs
/// at `s_avg`, LUT lanes proportionally to LUT work, HBM channels
/// proportionally to traffic.  Only the resource fields change; the
/// polynomials are kept.  It allocates nothing (a batch price sizes a
/// per-thread copy of its stages).  Throws std::invalid_argument for
/// s_avg <= 0 or more than kMaxStages stages.
void SizeStages(std::span<StageTimingModel> stages, const FpgaSpec& spec,
                double s_avg);

/// PartitionStages(ops), sized by SizeStages at s_avg.  A caller that
/// sizes the same operator list at many lengths partitions it once and
/// sizes per length; the result is the same bit for bit.
std::vector<StageTimingModel> BuildStageTimings(
    const std::vector<OpSpec>& ops, const FpgaSpec& spec, double s_avg);

}  // namespace latte
