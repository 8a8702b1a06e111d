// Ablation: which part of the length-aware pipeline buys what.
//
// Dimensions (DESIGN.md section 4): batch ordering (sorted vs FIFO vs
// padded), double buffering, batching policy (pad / micro-batch / sorted),
// and Algorithm 1 stage allocation vs the hand-drawn Fig 2(a) partition.

#include <cstdio>
#include <numeric>

#include "bench_common.hpp"

using namespace latte;
using namespace latte::bench;

namespace {

ScheduleResult Simulate(const ModelConfig& model,
                        const std::vector<std::size_t>& order,
                        bool double_buffer) {
  const auto ops =
      EncoderOps(model.encoder, AttentionMode::kSparseTopK, 30);
  const double s_avg =
      static_cast<double>(std::accumulate(order.begin(), order.end(),
                                          std::size_t{0})) /
      static_cast<double>(order.size());
  const auto models = BuildStageTimings(ops, AlveoU280Slr0(), s_avg);
  PipelineSimConfig cfg;
  cfg.layers = model.layers;
  cfg.double_buffer = double_buffer;
  return SimulatePipeline(order, models, cfg);
}

double Makespan(const ModelConfig& model,
                const std::vector<std::size_t>& order, bool double_buffer) {
  return Simulate(model, order, double_buffer).makespan;
}

std::string UtilString(const ScheduleResult& res) {
  std::string out;
  for (double u : res.StageUtilization()) {
    if (!out.empty()) out += "/";
    out += Fmt(100 * u, 0) + "%";
  }
  return out;
}

}  // namespace

int main() {
  std::printf("== Ablation: scheduling & pipelining design choices ==\n\n");
  const auto model = BertBase();
  const auto spec = Squad();
  const auto lens = SampleBatch(spec, 16, 42);

  // --- batch ordering ------------------------------------------------
  const auto sorted = MakeBatch(lens, BatchPolicy::kSortedDescending);
  const auto padded = MakeBatch(lens, BatchPolicy::kPadToMax);
  const auto micro = MakeBatch(lens, BatchPolicy::kMicroBatch, 4);

  const auto r_sorted = Simulate(model, sorted.effective_lengths, true);
  const auto r_fifo = Simulate(model, lens, true);  // arrival order
  const auto r_micro = Simulate(model, micro.effective_lengths, true);
  const auto r_padded = Simulate(model, padded.effective_lengths, true);
  const double t_sorted = r_sorted.makespan;

  TextTable order({"batch policy", "makespan (ms)", "vs sorted",
                   "padding overhead", "stage utilization"});
  order.AddRow({"sorted descending (ours)", Fmt(t_sorted * 1e3, 3),
                FmtX(1.0), Fmt(sorted.PaddingOverhead(), 2),
                UtilString(r_sorted)});
  order.AddRow({"FIFO arrival order", Fmt(r_fifo.makespan * 1e3, 3),
                FmtX(r_fifo.makespan / t_sorted), Fmt(1.0, 2),
                UtilString(r_fifo)});
  order.AddRow({"micro-batch of 4 (TurboTransformer-style)",
                Fmt(r_micro.makespan * 1e3, 3),
                FmtX(r_micro.makespan / t_sorted),
                Fmt(micro.PaddingOverhead(), 2), UtilString(r_micro)});
  order.AddRow({"pad to batch max (TensorRT-style)",
                Fmt(r_padded.makespan * 1e3, 3),
                FmtX(r_padded.makespan / t_sorted),
                Fmt(padded.PaddingOverhead(), 2), UtilString(r_padded)});
  std::printf("%s\n", order.Render().c_str());
  std::printf("note: with ping-pong buffers and a weight-balanced stage "
              "split, throughput is order-invariant in the simulator; the "
              "sort shows up as ~100%% stage utilization (the paper's "
              "claim) and protects the single-buffered design below.\n\n");

  // --- double buffering ------------------------------------------------
  const double t_single = Makespan(model, sorted.effective_lengths, false);
  std::printf("double buffers between stages: %.3f ms -> %.3f ms without "
              "(%.2fx slower)\n",
              t_sorted * 1e3, t_single * 1e3, t_single / t_sorted);
  // Single-buffered designs are order-sensitive: shuffled input stalls.
  const double t_single_fifo = Makespan(model, lens, false);
  std::printf("single-buffered + FIFO order: %.3f ms (%.2fx vs sorted "
              "single-buffered)\n\n",
              t_single_fifo * 1e3, t_single_fifo / t_single);

  // --- Algorithm 1 vs canonical Fig 2(a) partition ---------------------
  const auto ops =
      EncoderOps(model.encoder, AttentionMode::kSparseTopK, 30);
  const auto g = OpGraph::Chain(ops);
  const auto algo = AllocateStages(g, spec.avg_len);
  const auto canon = CanonicalStages(g, spec.avg_len);

  auto describe = [&](const char* name, const AllocationResult& alloc) {
    const auto work = StageFlopsPerToken(g, alloc, spec.avg_len);
    const auto plan = PlanPipeline(work);
    std::printf("%-22s stages=%zu  pipeline rate=%.0f tokens/ms  "
                "balance=%.2f\n",
                name, alloc.stages.size(),
                plan.TokensPerSecond(200e6) / 1e3,
                plan.BalanceRatio(200e6));
    for (std::size_t k = 0; k < alloc.stages.size(); ++k) {
      std::printf("    stage %zu:", k + 1);
      for (const auto& a : alloc.stages[k].ops) {
        std::printf(" %s", g.node(a.op).spec.name.c_str());
      }
      std::printf("\n");
    }
  };
  describe("Algorithm 1", algo);
  describe("canonical Fig 2(a)", canon);

  // --- Eq. 1 priorities -------------------------------------------------
  const auto prio = g.Priorities(spec.avg_len);
  std::printf("\nEq. 1 priorities at s_avg=%.0f (GFLOP):\n", spec.avg_len);
  for (std::size_t v = 0; v < g.size(); ++v) {
    std::printf("  %-10s P=%8.2f\n", g.node(v).spec.name.c_str(),
                prio[v] / 1e9);
  }
  return 0;
}
