// Reproduces the Fig 5 scenario: a batch of 5 sequences with lengths 140,
// 100, 82, 78, 72 streamed through the three coarse-grained encoder stages
// of two encoder layers, rendered as an ASCII Gantt chart.
//
//   $ ./scheduling_timeline
//
// Shows the "Saved" latency of the coarse pipeline vs serial execution and
// the per-stage utilization (the paper: "Each stage has almost 100%
// utilization, and there is no pipeline bubble").

#include <cstdio>

#include "latte/latte.hpp"

int main() {
  using namespace latte;

  // The paper's example batch, already sorted by decreasing length.
  const std::vector<std::size_t> lengths = {140, 100, 82, 78, 72};
  const std::size_t layers = 2;

  const auto model = BertBase();
  const auto ops =
      EncoderOps(model.encoder, AttentionMode::kSparseTopK, /*top_k=*/30);
  const double s_avg = 94.4;  // mean of the batch
  const auto stage_models = BuildStageTimings(ops, AlveoU280Slr0(), s_avg);

  PipelineSimConfig cfg;
  cfg.layers = layers;
  const auto schedule = SimulatePipeline(lengths, stage_models, cfg);

  std::printf("Fig 5: length-aware coarse-grained dynamic pipeline\n");
  std::printf("batch: ");
  for (auto n : lengths) std::printf("%zu ", n);
  std::printf(" (sorted descending), %zu encoder layers\n\n", layers);

  std::printf("%s\n", RenderGantt(schedule, 3, 100).c_str());
  std::printf("(digits = sequence index, per the I1..I5 rows of Fig 5; "
              "each stage chains the next sequence back-to-back)\n\n");

  std::printf("makespan            : %.3f ms\n", schedule.makespan * 1e3);
  std::printf("serial (no overlap) : %.3f ms\n",
              schedule.SerialTime() * 1e3);
  std::printf("saved by pipelining : %.3f ms (%.1f%%)\n",
              schedule.Saved() * 1e3,
              100.0 * schedule.Saved() / schedule.SerialTime());
  const auto util = schedule.StageUtilization();
  std::printf("stage utilization   : MM|At-Sel %.1f%%  At-Comp %.1f%%  "
              "FdFwd %.1f%%\n",
              100 * util[0], 100 * util[1], 100 * util[2]);
  std::printf("bubble time         : %.4f ms\n",
              schedule.BubbleTime() * 1e3);

  // Each stage's Working state in Fig 2(b).
  std::printf("\nstate machines: StateMM -> StateAtten -> StateFF\n");

  // Export the schedule for chrome://tracing / Perfetto.
  const char* trace_path = "fig5_schedule.json";
  if (ToChromeTrace(schedule).WriteFile(trace_path)) {
    std::printf("Chrome trace written to %s (open in chrome://tracing)\n",
                trace_path);
  }
  return 0;
}
