#pragma once
// Event-driven simulator of the length-aware coarse-grained pipeline
// (Section 4.2, Fig 5).
//
// A batch of sequences -- already ordered by the caller's batching policy --
// streams through the coarse stages layer by layer: every sequence passes
// Stage 1..S of encoder layer 0, then layer 1, and so on ("the batch input
// is processed by the layer order").  Job J(i, l, s) models sequence i in
// layer l on stage s with duration T_s(len_i).
//
// Dependencies:
//   * dataflow: J(i,l,s) starts after J(i,l,s-1); J(i,l,0) after
//     J(i,l-1,S-1);
//   * structural: each stage serves its jobs in stream order (layer-major,
//     then sequence); with double buffers the stage frees as soon as it
//     finishes, without them it additionally waits until the downstream
//     stage has drained the previous item's buffer.
//
// Each stage is one instance, and its free time is the Fig 2(b) state
// machine: the stage is Working (StateMM / StateAtten / StateFF) until
// then and Idle from then on.  Stage replication R(G_k) is not modelled.
//
// One recurrence serves two entry points: SimulatePipeline records the job
// list and per-stage busy time; PipelineMakespan returns only the makespan,
// the one number a batch price reads.
//
// Because sparse attention makes every stage O(n), feeding the batch in
// decreasing length order leaves no stage waiting on a longer downstream
// job -- the bubble-free property Fig 5 illustrates.  The simulator makes no
// such assumption; it simply reports the bubbles that a given order incurs.

#include <span>
#include <string>
#include <vector>

#include "fpga/timing.hpp"

namespace latte {

/// Simulation knobs.
struct PipelineSimConfig {
  std::size_t layers = 12;       ///< encoder layers the batch passes through
  bool double_buffer = true;     ///< ping-pong buffers between stages
};

/// One scheduled unit of work.
struct TimedJob {
  std::size_t seq = 0;
  std::size_t layer = 0;
  std::size_t stage = 0;
  double start = 0;
  double end = 0;
};

/// Full schedule produced by the simulator.
struct ScheduleResult {
  std::vector<TimedJob> jobs;
  double makespan = 0;
  std::vector<double> stage_busy;  ///< busy seconds per stage

  /// Per-stage utilization over the interval each stage is active
  /// (first start to last finish), matching the paper's "each stage has
  /// almost 100% utilization".
  std::vector<double> StageUtilization() const;

  /// Time if stages did not overlap at all (sum of all job durations).
  double SerialTime() const;

  /// Latency saved by pipelining ("Saved" in Fig 5).
  double Saved() const { return SerialTime() - makespan; }

  /// Total idle (bubble) seconds summed across stages within their active
  /// windows.
  double BubbleTime() const;
};

/// Simulates the coarse pipeline for sequences of the given lengths
/// (processed in vector order) through `cfg.layers` identical encoder
/// layers with per-stage timing models `stages`, recording every job.
/// Throws std::invalid_argument naming the stage if any stage time is NaN,
/// infinite or negative.
ScheduleResult SimulatePipeline(const std::vector<std::size_t>& lengths,
                                std::span<const StageTimingModel> stages,
                                const PipelineSimConfig& cfg);

/// The same recurrence as SimulatePipeline, run without recording jobs or
/// stage busy time: returns SimulatePipeline(...).makespan bit for bit and
/// throws the same errors.  This is the price of a batch; the figures, the
/// Gantt chart and fpga/trace read the job list instead.  It keeps its
/// state in a per-thread buffer: no allocation once the calling thread has
/// run a batch this large.
double PipelineMakespan(const std::vector<std::size_t>& lengths,
                        std::span<const StageTimingModel> stages,
                        const PipelineSimConfig& cfg);

/// Renders a schedule as an ASCII Gantt chart (one row per stage), the
/// textual equivalent of Fig 5(b).  `width` is the number of time buckets.
std::string RenderGantt(const ScheduleResult& schedule, std::size_t stages,
                        std::size_t width = 100);

}  // namespace latte
