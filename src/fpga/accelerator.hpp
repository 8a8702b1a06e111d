#pragma once
// Top-level FPGA accelerator model: ties together the operator inventory,
// the stage partition, the resource plan, and the pipeline simulator.
//
// Two modes (the two FPGA bars of Fig 7):
//   * kLengthAware -- the paper's design: sparse Top-k attention operators,
//     batch sorted by decreasing length, no padding, double buffers.
//   * kBaseline    -- "FPGA design without length-aware scheduling and
//     sparse attention": dense attention operators and every sequence
//     padded to the batch maximum.

#include <vector>

#include "fpga/pipeline_sim.hpp"
#include "fpga/resources.hpp"
#include "model/config.hpp"
#include "workload/batch.hpp"

namespace latte {

/// Which FPGA design point to simulate.
enum class FpgaMode { kBaseline, kLengthAware };

/// Accelerator configuration.
struct AcceleratorConfig {
  FpgaSpec spec = AlveoU280Slr0();
  FpgaMode mode = FpgaMode::kLengthAware;
  std::size_t top_k = 30;      ///< sparse attention candidates (length-aware)
  bool double_buffer = true;   ///< inter-stage ping-pong buffers
  bool sort_batch = true;      ///< decreasing-length order (length-aware)
  double element_bytes = 1.0;  ///< 8-bit fixed-point datapath
  /// Baseline mode pads to at least this length (the task maximum); 0 pads
  /// to the batch maximum only.
  std::size_t baseline_pad_to = 0;
};

/// Result of running one batch through the accelerator model.
struct AcceleratorReport {
  double latency_s = 0;            ///< batch makespan, all layers
  double attention_latency_s = 0;  ///< attention-only pipeline makespan
  /// Dense-equivalent useful work: FLOPs a dense, unpadded implementation
  /// needs for these sequences.  The paper reports "equivalent throughput"
  /// in these units (how 3.6 TFLOPS can exceed the 1.2 TFLOPS roof).
  double useful_dense_flops = 0;
  /// FLOPs the configured design actually executes (padding included).
  double computed_flops = 0;
  std::size_t batch_size = 0;
  std::size_t useful_tokens = 0;

  ScheduleResult schedule;  ///< full-encoder pipeline

  double EquivalentGops() const {
    return latency_s > 0 ? useful_dense_flops / latency_s / 1e9 : 0;
  }
  double SequencesPerSecond() const {
    return latency_s > 0 ? static_cast<double>(batch_size) / latency_s : 0;
  }
  double TokensPerSecond() const {
    return latency_s > 0 ? static_cast<double>(useful_tokens) / latency_s
                         : 0;
  }
};

/// Runs a batch of sequence lengths through the accelerator model.
AcceleratorReport RunAccelerator(const ModelConfig& model,
                                 const std::vector<std::size_t>& lengths,
                                 const AcceleratorConfig& cfg);

}  // namespace latte
