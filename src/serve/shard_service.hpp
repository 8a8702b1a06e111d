#pragma once
// Virtual-time pricing of tensor-parallel gangs.
//
// MakeShardedServiceModel wraps any BatchServiceModel -- the token-linear
// default, the padded baseline, the accelerator twin -- with the cost of
// running each batch on a gang of N tensor-parallel shards instead of one
// worker: compute time shrinks to the gang's critical-path share of the
// ShardPlan's operator partition (imbalance and the serial LayerNorm
// remainder included), and every request pays the plan's per-layer
// collective traffic priced by the InterconnectModel.  The wrapped model
// is a pure function of batch lengths, like every service model, so
// accounting-only sweeps stay byte-deterministic at any thread count.
//
// This is where "sharding beats replication" becomes a measurable
// question: for short sequences the hop-latency floor of the collectives
// dominates the compute saving and a gang loses to N independent
// replicas; past a crossover length the 1/N compute term wins on p99.
// bench/bench_shard.cpp sweeps exactly this surface.

#include "config/check.hpp"
#include "model/config.hpp"
#include "sched/interconnect.hpp"
#include "sched/shard_plan.hpp"
#include "serve/dispatch.hpp"

namespace latte {

/// Shape of one tensor-parallel gang behind a backend slot.
struct ShardServiceConfig {
  std::size_t degree = 2;  ///< shards per gang (>= 2; 1 is just replication)
  /// FFN2 strategy priced into the plan.  Row-parallel (default here) is
  /// the cheaper wire shape: one all-reduce of the hidden-width output
  /// instead of all-gathering the 4x wider GELU activation.
  bool row_parallel_ffn2 = true;
  InterconnectConfig interconnect;  ///< link/hop/DRAM-spill cost knobs
  /// Batches whose longest request is shorter than this keep the base
  /// (unsharded) price: the gang runs them on one member rather than pay
  /// collectives that cannot amortize.  0 shards everything.
  std::size_t min_sharded_len = 0;
};

/// Names every illegal field (degree < 2, malformed interconnect --
/// nested issues carry an "interconnect." prefix); empty means legal.
ConfigIssues CheckShardServiceConfig(const ShardServiceConfig& cfg);

/// Wraps `base` with the gang cost under `cfg` for `model`'s encoder
/// stack:
///
///   sharded(lengths) = base(lengths) * MaxShare(plan, max_len)
///                    + sum_req layers * ShardLayerCommSeconds(len)
///
/// The compute share is evaluated at the batch's longest sequence (the
/// member that shapes the gang's critical path).  Batches below
/// `cfg.min_sharded_len` return base(lengths) unchanged.  Validates `cfg`
/// and builds the plan against `model.encoder` (throws on mismatch).
BatchServiceModel MakeShardedServiceModel(BatchServiceModel base,
                                          const ModelConfig& model,
                                          const ShardServiceConfig& cfg);

/// Just the collectives term of the gang price above:
///
///   comm(lengths) = sum_req layers * ShardLayerCommSeconds(len)
///
/// and 0 for batches MakeShardedServiceModel would leave unsharded
/// (empty, or below `cfg.min_sharded_len`).  The engine prices this
/// separately to attribute each sharded batch's interconnect tail as its
/// own trace sub-span (obs/analyze's shard_comm stage); by construction
/// sharded(lengths) == base(lengths) * share + comm(lengths), so the
/// sub-span always fits inside the service span.  Validates `cfg` and
/// builds the plan against `model.encoder` (throws on mismatch).
BatchServiceModel MakeShardCommModel(const ModelConfig& model,
                                     const ShardServiceConfig& cfg);

}  // namespace latte
