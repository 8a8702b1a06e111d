#pragma once
// Tensor-parallel partition plan of one encoder layer.
//
// A ShardPlan assigns each of N shards a contiguous slice of the three
// partitionable axes of the layer:
//
//   heads       -- attention heads: QKV projections, scores, softmax and
//                  context are embarrassingly parallel across heads
//                  (Megatron-style column parallelism of Wq/Wk/Wv),
//   ffn_cols    -- output columns of FFN1 (and GELU), i.e. rows of FFN2,
//   hidden_cols -- output columns of Wo and of FFN2's column-parallel
//                  variant.
//
// Ranges are balanced (sizes differ by at most one) and may be empty when
// the degree exceeds the axis extent, so plans exist for every (heads,
// degree) combination including degrees that do not divide the head
// count.  LayerNorms and residual adds stay serial: they are O(n*h),
// negligible next to the GEMMs.
//
// Sharding is priced, not executed.  PartitionOpWeights splits the
// operator list's FLOP weights into per-shard and serial buckets (the
// compute share a gang of N devices achieves, imbalance included), and
// PlanCommVolume/ShardLayerCommSeconds measure the collective traffic a
// layer pays under the plan, in bytes and in InterconnectModel seconds.  serve/shard_service turns both into
// the kSharded backend's service model.

#include <cstddef>
#include <vector>

#include "config/check.hpp"
#include "nn/encoder.hpp"
#include "nn/op_cost.hpp"
#include "sched/interconnect.hpp"

namespace latte {

/// Half-open index range [begin, end) of one shard on one axis.
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  std::size_t size() const { return end - begin; }
  bool operator==(const ShardRange&) const = default;
};

/// Knobs of plan construction.
struct ShardPlanConfig {
  std::size_t shards = 2;  ///< tensor-parallel degree (>= 1)
  /// FFN2 strategy: false (default) keeps FFN2 column-parallel -- every
  /// shard consumes the all-gathered FFN activation and produces an
  /// output-column slice.  true switches to row-parallel FFN2: each shard
  /// multiplies only its own GELU slice and the partial sums are reduced
  /// -- less traffic (one all-reduce instead of two all-gathers).
  bool row_parallel_ffn2 = false;
};

/// Names every illegal field (zero shards); empty means legal.
ConfigIssues CheckShardPlanConfig(const ShardPlanConfig& cfg);

/// CheckShardPlanConfig plus the encoder shape a plan must partition:
/// "encoder.heads" must be >= 1 and "encoder.hidden" divisible by it.
/// This is the full non-throwing test of what MakeShardPlan enforces.
ConfigIssues CheckShardPlanShape(const EncoderConfig& enc,
                                 const ShardPlanConfig& cfg);

/// Splits `total` indices into `parts` contiguous balanced ranges: the
/// first total % parts ranges get one extra element.  Ranges beyond
/// `total` are empty.
std::vector<ShardRange> BalancedRanges(std::size_t total, std::size_t parts);

/// The partition: one range per shard on each partitionable axis.
struct ShardPlan {
  std::size_t shards = 1;
  bool row_parallel_ffn2 = false;
  std::vector<ShardRange> heads;        ///< attention heads per shard
  std::vector<ShardRange> ffn_cols;     ///< FFN1 output columns per shard
  std::vector<ShardRange> hidden_cols;  ///< Wo / FFN2 output columns per shard
};

/// Builds the balanced plan for `cfg.shards` shards of one encoder layer.
/// Validates via CheckShardPlanShape and throws std::invalid_argument
/// naming every illegal field when the configuration is malformed or the
/// encoder has zero heads / a hidden size the head count does not divide.
ShardPlan MakeShardPlan(const EncoderConfig& enc, const ShardPlanConfig& cfg);

/// FLOP weights of one layer under a plan, split into per-shard and
/// serial buckets at sequence length n.
struct ShardWeights {
  std::vector<double> shard_flops;  ///< parallel work owned by each shard
  double serial_flops = 0;          ///< LayerNorms, residual-class work
  double total_flops = 0;           ///< serial + sum of shard buckets

  /// Fraction of the layer's work on the critical path of the gang:
  /// (serial + slowest shard) / total.  1.0 for a single shard or an
  /// empty layer; approaches 1/N for a balanced N-way plan.
  double MaxShare() const;
};

/// Partitions the operator list's arithmetic weights under `plan`:
/// attention operators split by head share, FFN1/GELU by FFN-column
/// share, Wo by hidden-column share, FFN2 by whichever axis the plan
/// splits it on, LayerNorms serial.  Operators with zero FLOPs (pure
/// LUT work, e.g. the sparse attention selector) fall back to their
/// lut_ops weight so sparse-mode lists partition meaningfully too.
ShardWeights PartitionOpWeights(const std::vector<OpSpec>& ops,
                                const ShardPlan& plan,
                                const EncoderConfig& enc, double n);

/// Collective traffic one encoder layer pays under a plan at sequence
/// length n, in fp32 bytes.  `gather_*` fields are per-shard contribution
/// sizes (what one ring step carries); `reduce_ffn_bytes` is the total
/// tensor size all-reduced by the row-parallel FFN2; `broadcast_*` are
/// full-tensor sizes sent from the serial stage to every shard.
struct ShardCommVolume {
  std::size_t gather_ctx_bytes = 0;    ///< attention context slices
  std::size_t gather_attn_bytes = 0;   ///< Wo output slices
  std::size_t broadcast_x1_bytes = 0;  ///< post-LN1 residual to all shards
  std::size_t gather_ffn_bytes = 0;    ///< GELU slices (column-parallel FFN2)
  std::size_t reduce_ffn_bytes = 0;    ///< FFN2 partials (row-parallel FFN2)
  std::size_t gather_out_bytes = 0;    ///< FFN2 output slices (column mode)
  std::size_t broadcast_out_bytes = 0; ///< post-LN2 output to all shards

  std::size_t TotalBytes() const {
    return gather_ctx_bytes + gather_attn_bytes + broadcast_x1_bytes +
           gather_ffn_bytes + reduce_ffn_bytes + gather_out_bytes +
           broadcast_out_bytes;
  }
};

/// Per-layer collective volumes under `plan` at sequence length n.
/// All zero when plan.shards <= 1 (nothing to communicate).
ShardCommVolume PlanCommVolume(const ShardPlan& plan, const EncoderConfig& enc,
                               std::size_t seq_len);

/// Virtual-time seconds one layer spends in collectives under `plan`:
/// the PlanCommVolume steps priced by `icn` (all-gathers for slices, an
/// all-reduce for row-parallel FFN2 partials, broadcasts for the serial
/// stages' outputs).
double ShardLayerCommSeconds(const ShardPlan& plan, const EncoderConfig& enc,
                             const InterconnectModel& icn,
                             std::size_t seq_len);

}  // namespace latte
