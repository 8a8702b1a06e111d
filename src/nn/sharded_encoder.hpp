#pragma once
// Tensor-parallel encoder layer forward pass.
//
// One logical EncoderForward executed by a gang of N shards under a
// ShardPlan: QKV projections and attention are head-parallel, Wo and
// FFN1/GELU are column-parallel, and FFN2 is either column-parallel
// (default) or row-parallel with a fixed-order reduction.  Residual adds
// and LayerNorms run serially on the calling thread, exactly where the
// unsharded encoder runs them.
//
// Bit-exactness contract (same spirit as batch-vs-sequential): with the
// default column-parallel plan, the sharded output is bit-identical to
// EncoderForward for the same weights and attention function, for every
// shard degree -- including degrees that do not divide the head count
// (trailing shards just own fewer or zero heads).  The column-slice GEMMs
// reduce in the full GEMM's K-tile order, the gathers are plain column
// copies, and every cross-shard sum happens serially in a fixed order, so
// no float operation is re-associated anywhere.  The
// row-parallel FFN2 option re-associates that one reduction and agrees
// to rounding only.

#include "nn/encoder.hpp"
#include "runtime/batch_runner.hpp"
#include "runtime/shard_exec.hpp"
#include "sched/shard_plan.hpp"

namespace latte {

/// Runs one encoder layer across the gang of `exec`.  `attn` runs per
/// head on the owning shard's workspace.  Throws std::invalid_argument
/// when the input width, the plan axes or the gang size disagree with
/// `cfg` / `exec`.
MatrixF ShardedEncoderForward(const MatrixF& x, const EncoderWeights& w,
                              const EncoderConfig& cfg, const ShardPlan& plan,
                              const AttentionFn& attn,
                              ShardExecutor& exec);

}  // namespace latte
