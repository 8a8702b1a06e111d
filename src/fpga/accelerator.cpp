#include "fpga/accelerator.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace latte {
namespace {

double MeanLength(const std::vector<std::size_t>& lengths) {
  const double total = static_cast<double>(std::accumulate(
      lengths.begin(), lengths.end(), std::size_t{0}));
  return std::max(1.0, total / static_cast<double>(lengths.size()));
}

/// Operator inventory of the attention implementation `cfg.mode` selects.
std::vector<OpSpec> ModeOps(const ModelConfig& model,
                            const AcceleratorConfig& cfg) {
  const AttentionMode amode = cfg.mode == FpgaMode::kLengthAware
                                  ? AttentionMode::kSparseTopK
                                  : AttentionMode::kDense;
  return EncoderOps(model.encoder, amode, cfg.top_k);
}

/// Orders or pads the batch as `cfg.mode` says and simulates `ops` through
/// `layers` encoder layers.
ScheduleResult Schedule(const std::vector<OpSpec>& ops, std::size_t layers,
                        const std::vector<std::size_t>& lengths,
                        const AcceleratorConfig& cfg) {
  if (lengths.empty()) {
    throw std::invalid_argument("accelerator model: empty batch");
  }
  const BatchPolicy policy =
      cfg.mode == FpgaMode::kLengthAware && cfg.sort_batch
          ? BatchPolicy::kSortedDescending
          : BatchPolicy::kPadToMax;
  const Batch batch = MakeBatch(lengths, policy, 4, cfg.baseline_pad_to);
  const auto& eff = batch.effective_lengths;
  PipelineSimConfig sim_cfg;
  sim_cfg.layers = layers;
  // The stage partition and DSP split are fixed at synthesis time for the
  // expected processed length: the per-task average for the length-aware
  // design, the fixed padded length for the baseline.
  return SimulatePipeline(
      eff, BuildStageTimings(ops, cfg.spec, MeanLength(eff)), sim_cfg);
}

}  // namespace

ScheduleResult RunAccelerator(const ModelConfig& model,
                              const std::vector<std::size_t>& lengths,
                              const AcceleratorConfig& cfg) {
  return Schedule(ModeOps(model, cfg), model.layers, lengths, cfg);
}

double AttentionLatency(const ModelConfig& model,
                        const std::vector<std::size_t>& lengths,
                        const AcceleratorConfig& cfg) {
  std::vector<OpSpec> attn_ops;
  for (const auto& op : ModeOps(model, cfg)) {
    if (op.in_attention) attn_ops.push_back(op);
  }
  return Schedule(attn_ops, model.layers, lengths, cfg).makespan;
}

}  // namespace latte
