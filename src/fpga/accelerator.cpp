#include "fpga/accelerator.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <span>
#include <stdexcept>

namespace latte {
namespace {

double MeanLength(const std::vector<std::size_t>& lengths) {
  const double total = static_cast<double>(std::accumulate(
      lengths.begin(), lengths.end(), std::size_t{0}));
  return std::max(1.0, total / static_cast<double>(lengths.size()));
}

/// Unsized stages of the attention implementation `cfg.mode` selects;
/// `attention_only` keeps the self-attention operators alone.
std::vector<StageTimingModel> ModeStages(const ModelConfig& model,
                                         const AcceleratorConfig& cfg,
                                         bool attention_only) {
  const AttentionMode amode = cfg.mode == FpgaMode::kLengthAware
                                  ? AttentionMode::kSparseTopK
                                  : AttentionMode::kDense;
  std::vector<OpSpec> ops = EncoderOps(model.encoder, amode, cfg.top_k);
  if (attention_only) {
    std::erase_if(ops, [](const OpSpec& op) { return !op.in_attention; });
  }
  return PartitionStages(ops);
}

/// Orders or pads the batch as `cfg.mode` says, sizes the partitioned
/// `stages` for it and runs `simulate` (SimulatePipeline or
/// PipelineMakespan) through `layers` encoder layers.
template <typename Simulate>
auto Schedule(const std::vector<StageTimingModel>& stages, std::size_t layers,
              const std::vector<std::size_t>& lengths,
              const AcceleratorConfig& cfg, Simulate simulate) {
  if (lengths.empty()) {
    throw std::invalid_argument("accelerator model: empty batch");
  }
  // The lengths the hardware computes on: the length-aware design runs
  // every sequence unpadded, sorted by decreasing length unless the caller
  // keeps its own order; the baseline pads every sequence to the batch
  // maximum and at least baseline_pad_to.  They go to a buffer each
  // thread reuses, so a price allocates nothing for them once its thread
  // has priced a batch this large.
  thread_local std::vector<std::size_t> eff;
  eff.assign(lengths.begin(), lengths.end());
  if (cfg.mode == FpgaMode::kLengthAware) {
    if (cfg.sort_batch) std::sort(eff.begin(), eff.end(), std::greater<>());
  } else {
    std::fill(eff.begin(), eff.end(),
              std::max(*std::max_element(eff.begin(), eff.end()),
                       cfg.baseline_pad_to));
  }
  PipelineSimConfig sim_cfg;
  sim_cfg.layers = layers;
  // The stage partition and DSP split are fixed at synthesis time for the
  // expected processed length: the per-task average for the length-aware
  // design, the fixed padded length for the baseline.  The stages are
  // sized in a copy each thread reuses, so a price allocates nothing for
  // them once its thread has priced this many stages.
  thread_local std::vector<StageTimingModel> sized;
  sized.assign(stages.begin(), stages.end());
  SizeStages(sized, cfg.spec, MeanLength(eff));
  return simulate(eff, std::span<const StageTimingModel>(sized), sim_cfg);
}

}  // namespace

ScheduleResult RunAccelerator(const ModelConfig& model,
                              const std::vector<std::size_t>& lengths,
                              const AcceleratorConfig& cfg) {
  return Schedule(ModeStages(model, cfg, false), model.layers, lengths, cfg,
                  SimulatePipeline);
}

double AttentionLatency(const ModelConfig& model,
                        const std::vector<std::size_t>& lengths,
                        const AcceleratorConfig& cfg) {
  return Schedule(ModeStages(model, cfg, true), model.layers, lengths, cfg,
                  PipelineMakespan);
}

AcceleratorPricer::AcceleratorPricer(const ModelConfig& model,
                                     const AcceleratorConfig& cfg)
    : cfg_(cfg),
      layers_(model.layers),
      stages_(ModeStages(model, cfg, false)) {}

double AcceleratorPricer::Makespan(
    const std::vector<std::size_t>& lengths) const {
  return Schedule(stages_, layers_, lengths, cfg_, PipelineMakespan);
}

}  // namespace latte
