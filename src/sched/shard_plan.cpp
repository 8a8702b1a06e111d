#include "sched/shard_plan.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace latte {
namespace {

// Largest per-shard contribution on an axis, in fp32 bytes at n rows.
// Ring steps carry the worst slice, so collectives are priced on it.
std::size_t MaxSliceBytes(const std::vector<ShardRange>& ranges,
                          std::size_t seq_len) {
  std::size_t widest = 0;
  for (const auto& r : ranges) widest = std::max(widest, r.size());
  return seq_len * widest * sizeof(float);
}

// Arithmetic weight of one operator: FLOPs, falling back to LUT ops for
// the pure-LUT operators so sparse-mode lists keep their selector work.
double OpWeight(const OpSpec& spec, double n) {
  const double flops = spec.flops.Eval(n);
  return flops > 0 ? flops : spec.lut_ops.Eval(n);
}

}  // namespace

ConfigIssues CheckShardPlanConfig(const ShardPlanConfig& cfg) {
  ConfigIssues issues;
  if (cfg.shards == 0) {
    AddIssue(issues, "shards", "must be >= 1");
  }
  return issues;
}

std::vector<ShardRange> BalancedRanges(std::size_t total, std::size_t parts) {
  std::vector<ShardRange> ranges(parts);
  if (parts == 0) return ranges;
  const std::size_t base = total / parts;
  const std::size_t extra = total % parts;
  std::size_t at = 0;
  for (std::size_t s = 0; s < parts; ++s) {
    const std::size_t width = base + (s < extra ? 1 : 0);
    ranges[s] = {at, at + width};
    at += width;
  }
  return ranges;
}

ConfigIssues CheckShardPlanShape(const EncoderConfig& enc,
                                 const ShardPlanConfig& cfg) {
  ConfigIssues issues = CheckShardPlanConfig(cfg);
  if (enc.heads == 0) {
    AddIssue(issues, "encoder.heads",
             "must be >= 1 (a plan partitions attention across heads)");
  } else if (enc.hidden % enc.heads != 0) {
    AddIssue(issues, "encoder.hidden",
             "must be divisible by the head count (" +
                 std::to_string(enc.heads) +
                 "): heads own equal hidden slices");
  }
  return issues;
}

ShardPlan MakeShardPlan(const EncoderConfig& enc, const ShardPlanConfig& cfg) {
  ThrowOnIssues("MakeShardPlan", CheckShardPlanShape(enc, cfg));
  ShardPlan plan;
  plan.shards = cfg.shards;
  plan.row_parallel_ffn2 = cfg.row_parallel_ffn2;
  plan.heads = BalancedRanges(enc.heads, cfg.shards);
  plan.ffn_cols = BalancedRanges(enc.ffn(), cfg.shards);
  plan.hidden_cols = BalancedRanges(enc.hidden, cfg.shards);
  return plan;
}

double ShardWeights::MaxShare() const {
  if (total_flops <= 0) return 1.0;
  const double slowest =
      shard_flops.empty()
          ? 0.0
          : *std::max_element(shard_flops.begin(), shard_flops.end());
  return (serial_flops + slowest) / total_flops;
}

ShardWeights PartitionOpWeights(const std::vector<OpSpec>& ops,
                                const ShardPlan& plan,
                                const EncoderConfig& enc, double n) {
  ShardWeights out;
  out.shard_flops.assign(plan.shards, 0.0);
  for (const OpSpec& spec : ops) {
    const double w = OpWeight(spec, n);
    double axis_total = 0;
    const std::vector<ShardRange>* axis = nullptr;
    switch (spec.kind) {
      case OpKind::kQkvProjection:
      case OpKind::kScoreMatMul:
      case OpKind::kScale:
      case OpKind::kMask:
      case OpKind::kSoftmax:
      case OpKind::kContextMatMul:
      case OpKind::kAttentionSelect:
      case OpKind::kSparseScore:
      case OpKind::kSparseContext:
        axis = &plan.heads;
        axis_total = static_cast<double>(enc.heads);
        break;
      case OpKind::kOutputProjection:
        axis = &plan.hidden_cols;
        axis_total = static_cast<double>(enc.hidden);
        break;
      case OpKind::kFfn1:
      case OpKind::kGelu:
        axis = &plan.ffn_cols;
        axis_total = static_cast<double>(enc.ffn());
        break;
      case OpKind::kFfn2:
        // Row-parallel FFN2 splits the reduction (FFN rows); the
        // column-parallel variant splits output columns.  Work is
        // proportional to the owned slice either way.
        axis = plan.row_parallel_ffn2 ? &plan.ffn_cols : &plan.hidden_cols;
        axis_total = plan.row_parallel_ffn2
                         ? static_cast<double>(enc.ffn())
                         : static_cast<double>(enc.hidden);
        break;
      case OpKind::kLayerNorm1:
      case OpKind::kLayerNorm2:
        break;  // serial
    }
    if (axis == nullptr || axis_total <= 0) {
      out.serial_flops += w;
    } else {
      for (std::size_t s = 0; s < plan.shards; ++s) {
        out.shard_flops[s] +=
            w * static_cast<double>((*axis)[s].size()) / axis_total;
      }
    }
    out.total_flops += w;
  }
  return out;
}

ShardCommVolume PlanCommVolume(const ShardPlan& plan, const EncoderConfig& enc,
                               std::size_t seq_len) {
  ShardCommVolume v;
  if (plan.shards <= 1) return v;
  const std::size_t full_bytes = seq_len * enc.hidden * sizeof(float);
  v.gather_ctx_bytes = MaxSliceBytes(plan.heads, seq_len) * enc.head_dim();
  v.gather_attn_bytes = MaxSliceBytes(plan.hidden_cols, seq_len);
  v.broadcast_x1_bytes = full_bytes;
  if (plan.row_parallel_ffn2) {
    v.reduce_ffn_bytes = full_bytes;
  } else {
    v.gather_ffn_bytes = MaxSliceBytes(plan.ffn_cols, seq_len);
    v.gather_out_bytes = MaxSliceBytes(plan.hidden_cols, seq_len);
  }
  v.broadcast_out_bytes = full_bytes;
  return v;
}

double ShardLayerCommSeconds(const ShardPlan& plan, const EncoderConfig& enc,
                             const InterconnectModel& icn,
                             std::size_t seq_len) {
  if (plan.shards <= 1) return 0;
  const ShardCommVolume v = PlanCommVolume(plan, enc, seq_len);
  double s = icn.AllGatherS(plan.shards, v.gather_ctx_bytes) +
             icn.AllGatherS(plan.shards, v.gather_attn_bytes) +
             icn.BroadcastS(plan.shards, v.broadcast_x1_bytes) +
             icn.BroadcastS(plan.shards, v.broadcast_out_bytes);
  if (plan.row_parallel_ffn2) {
    s += icn.AllReduceS(plan.shards, v.reduce_ffn_bytes);
  } else {
    s += icn.AllGatherS(plan.shards, v.gather_ffn_bytes) +
         icn.AllGatherS(plan.shards, v.gather_out_bytes);
  }
  return s;
}

}  // namespace latte
