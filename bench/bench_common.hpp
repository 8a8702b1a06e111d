#pragma once
// Shared helpers for the table/figure reproduction binaries.

#include <cstdio>
#include <string>
#include <vector>

#include "latte/latte.hpp"

namespace latte::bench {

/// Deterministic batch of sequence lengths for a dataset.
inline std::vector<std::size_t> SampleBatch(const DatasetSpec& spec,
                                            std::size_t batch,
                                            std::uint64_t seed) {
  Rng rng(seed);
  LengthSampler sampler(spec);
  return sampler.SampleMany(rng, batch);
}

/// The four evaluation combos of Fig 7: (model, dataset).
struct EvalCombo {
  ModelConfig model;
  DatasetSpec dataset;
};

inline std::vector<EvalCombo> Fig7Combos() {
  return {
      {BertBase(), Squad()},
      {BertBase(), Rte()},
      {BertBase(), Mrpc()},
      {BertLarge(), Squad()},
  };
}

/// Latency of all five designs of Fig 7 on one batch.
struct CrossPlatformLatency {
  double cpu = 0, tx2 = 0, gpu = 0, fpga_base = 0, fpga_aware = 0;
  double cpu_attn = 0, tx2_attn = 0, gpu_attn = 0, fpga_base_attn = 0,
         fpga_aware_attn = 0;
};

inline CrossPlatformLatency MeasureAll(const ModelConfig& model,
                                       const DatasetSpec& dataset,
                                       const std::vector<std::size_t>& lens,
                                       std::size_t top_k = 30) {
  // CPU/GPU frameworks pad every sequence to the task maximum
  // (Section 5.2); so does the FPGA baseline without length-aware
  // scheduling.
  const auto pad_to = static_cast<std::size_t>(dataset.max_len);
  CrossPlatformLatency r;
  const auto cpu = RunPlatform(XeonGold5218(), model, lens,
                               BatchPolicy::kPadToMax, pad_to);
  const auto tx2 =
      RunPlatform(JetsonTx2(), model, lens, BatchPolicy::kPadToMax, pad_to);
  const auto gpu = RunPlatform(QuadroRtx6000(), model, lens,
                               BatchPolicy::kPadToMax, pad_to);
  AcceleratorConfig base;
  base.mode = FpgaMode::kBaseline;
  base.baseline_pad_to = pad_to;
  AcceleratorConfig aware;
  aware.top_k = top_k;
  r.cpu = cpu.latency_s;
  r.tx2 = tx2.latency_s;
  r.gpu = gpu.latency_s;
  r.fpga_base = RunAccelerator(model, lens, base).makespan;
  r.fpga_aware = RunAccelerator(model, lens, aware).makespan;
  r.cpu_attn = cpu.attention_latency_s;
  r.tx2_attn = tx2.attention_latency_s;
  r.gpu_attn = gpu.attention_latency_s;
  r.fpga_base_attn = AttentionLatency(model, lens, base);
  r.fpga_aware_attn = AttentionLatency(model, lens, aware);
  return r;
}

/// The padded backend of the cluster and cache sweeps: 10 us per padded
/// token plus a 1 ms dispatch overhead per batch.
inline BatchServiceModel PaddedBackend() {
  ServiceModelSpec spec;
  spec.base = ServiceModelSpec::Base::kPadded;
  spec.seconds_per_token = 10e-6;
  spec.batch_overhead_s = 1e-3;
  return BuildServiceModel(spec);
}

}  // namespace latte::bench
