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
//
// `RunAccelerator` returns the full-encoder schedule (the batch latency is
// its makespan); `AttentionLatency` is the attention-only makespan behind
// Fig 7(b).  `AcceleratorPricer` prices many batches of one design point:
// it partitions the mode's operator inventory into stage polynomials once,
// and each price only orders the batch, sizes the stages at its mean
// processed length and runs the pipeline recurrence without a job list
// (PipelineMakespan).  The datapath is 8-bit fixed point throughout.

#include <vector>

#include "fpga/pipeline_sim.hpp"
#include "fpga/resources.hpp"
#include "model/config.hpp"

namespace latte {

/// Which FPGA design point to simulate.
enum class FpgaMode { kBaseline, kLengthAware };

/// Accelerator configuration.
struct AcceleratorConfig {
  FpgaSpec spec = AlveoU280Slr0();
  FpgaMode mode = FpgaMode::kLengthAware;
  std::size_t top_k = 30;      ///< sparse attention candidates (length-aware)
  /// Length-aware: run the batch in decreasing-length order; false runs it
  /// in the given order, still unpadded.
  bool sort_batch = true;
  /// Baseline mode pads to at least this length (the task maximum); 0 pads
  /// to the batch maximum only.
  std::size_t baseline_pad_to = 0;
};

/// Runs a batch of sequence lengths through every encoder layer of the
/// accelerator model and returns the pipeline schedule; the batch latency
/// is its `makespan`.  Throws std::invalid_argument on an empty batch.
ScheduleResult RunAccelerator(const ModelConfig& model,
                              const std::vector<std::size_t>& lengths,
                              const AcceleratorConfig& cfg);

/// Makespan of the same batch through the attention operators alone (the
/// measurement behind Fig 7(b)).  Like the attention-accelerator
/// comparisons in Table 2 (A3, SpAtten), the attention engine is a
/// standalone design that may configure the whole fabric for the attention
/// operators.  Throws std::invalid_argument on an empty batch.
double AttentionLatency(const ModelConfig& model,
                        const std::vector<std::size_t>& lengths,
                        const AcceleratorConfig& cfg);

/// The full-encoder batch price of one (model, accelerator) design point.
/// Makespan(lengths) equals RunAccelerator(model, lengths, cfg).makespan
/// bit for bit; the operator inventory is built and partitioned into stage
/// polynomials once, at construction, instead of on every call.
class AcceleratorPricer {
 public:
  AcceleratorPricer(const ModelConfig& model, const AcceleratorConfig& cfg);

  /// Batch latency in seconds.  Throws std::invalid_argument on an empty
  /// batch.  Allocates nothing once the calling thread has priced a batch
  /// this large (the lengths, the sized stages and the recurrence use
  /// per-thread buffers).
  double Makespan(const std::vector<std::size_t>& lengths) const;

 private:
  AcceleratorConfig cfg_;
  std::size_t layers_;
  std::vector<StageTimingModel> stages_;  ///< partitioned, not yet sized
};

}  // namespace latte
