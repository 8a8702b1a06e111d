#include "fpga/accelerator.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace latte {
namespace {

double MeanLength(const std::vector<std::size_t>& lengths) {
  if (lengths.empty()) return 1.0;
  const double total = static_cast<double>(std::accumulate(
      lengths.begin(), lengths.end(), std::size_t{0}));
  return std::max(1.0, total / static_cast<double>(lengths.size()));
}

}  // namespace

AcceleratorReport RunAccelerator(const ModelConfig& model,
                                 const std::vector<std::size_t>& lengths,
                                 const AcceleratorConfig& cfg) {
  if (lengths.empty()) {
    throw std::invalid_argument("RunAccelerator: empty batch");
  }

  // 1. Batching policy.
  const bool sparse = cfg.mode == FpgaMode::kLengthAware;
  const BatchPolicy policy = sparse && cfg.sort_batch
                                 ? BatchPolicy::kSortedDescending
                                 : BatchPolicy::kPadToMax;
  const Batch batch = MakeBatch(lengths, policy, 4, cfg.baseline_pad_to);
  const auto& eff = batch.effective_lengths;

  // 2. Operator inventory for the chosen attention implementation.
  const AttentionMode amode =
      sparse ? AttentionMode::kSparseTopK : AttentionMode::kDense;
  const auto ops = EncoderOps(model.encoder, amode, cfg.top_k);
  // The stage partition and DSP split are fixed at synthesis time for the
  // expected processed length: the per-task average for the length-aware
  // design, the fixed padded length for the baseline.
  const double s_avg = MeanLength(eff);

  // 3. Fig 2(a) stage partition and proportional resource plan.
  const auto stage_models =
      BuildStageTimings(ops, cfg.spec, s_avg, cfg.element_bytes);

  // 4. Pipeline simulation over all encoder layers.
  PipelineSimConfig sim_cfg;
  sim_cfg.layers = model.layers;
  sim_cfg.double_buffer = cfg.double_buffer;
  ScheduleResult schedule = SimulatePipeline(eff, stage_models, sim_cfg);

  // 5. Attention-only pipeline (the measurement behind Fig 7(b)).  Like the
  // attention-accelerator comparisons in Table 2 (A3, SpAtten), the
  // attention engine is measured as a standalone design that may configure
  // the whole fabric for the attention operators.
  std::vector<OpSpec> attn_ops;
  for (const auto& op : ops) {
    if (op.in_attention) attn_ops.push_back(op);
  }
  const auto attn_models =
      BuildStageTimings(attn_ops, cfg.spec, s_avg, cfg.element_bytes);
  const ScheduleResult attn_schedule =
      SimulatePipeline(eff, attn_models, sim_cfg);

  // 6. Accounting.
  AcceleratorReport rep;
  rep.batch_size = lengths.size();
  rep.useful_tokens = batch.UsefulTokens();
  rep.latency_s = schedule.makespan;
  rep.attention_latency_s = attn_schedule.makespan;
  const auto dense_ops = EncoderOps(model.encoder, AttentionMode::kDense);
  const double layers = static_cast<double>(model.layers);
  for (std::size_t n : batch.original_lengths) {
    rep.useful_dense_flops +=
        layers * TotalFlops(dense_ops, static_cast<double>(n));
  }
  for (std::size_t n : eff) {
    rep.computed_flops += layers * TotalFlops(ops, static_cast<double>(n));
  }
  rep.schedule = std::move(schedule);
  return rep;
}

}  // namespace latte
