// Ablation: the accuracy/throughput design space (Figs 6 + 7 jointly).
// Runs the automated design-space explorer and prints every point plus the
// Pareto front and the chosen operating point under the paper's < 2%
// accuracy budget -- which should land at Top-30 / 1-bit, the paper's
// "sweet point" (Section 5.2).

#include <cstdio>

#include "bench_common.hpp"
#include "metrics/design_explorer.hpp"

using namespace latte;

int main() {
  std::printf("== Ablation: accuracy/throughput Pareto exploration ==\n\n");

  for (const auto& dataset : {Squad(), Rte()}) {
    const auto res = ExploreDesign(BertBase(), dataset, {10, 20, 30, 40, 50});

    std::printf("BERT-base on %s (batch 16, drop budget 2%%):\n",
                dataset.name.c_str());
    TextTable table({"k", "bits", "seq/s", "retained mass",
                     "predicted drop", "feasible", "pareto"});
    const auto front = res.ParetoFront();
    auto on_front = [&](const ExplorerPoint& p) {
      for (const auto& f : front) {
        if (f.top_k == p.top_k && f.bits == p.bits) return true;
      }
      return false;
    };
    for (const auto& p : res.points) {
      table.AddRow({std::to_string(p.top_k), std::to_string(p.bits),
                    Fmt(p.sequences_per_s, 1), Fmt(p.retained_mass, 3),
                    Fmt(p.predicted_drop_pct, 2) + "%",
                    p.feasible ? "yes" : "no", on_front(p) ? "*" : ""});
    }
    std::printf("%s", table.Render().c_str());
    if (res.found_feasible) {
      std::printf("chosen operating point: Top-%zu, %d-bit (%.1f seq/s, "
                  "%.2f%% drop)  [paper sweet point: Top-30, 1-bit]\n\n",
                  res.best().top_k, res.best().bits,
                  res.best().sequences_per_s,
                  res.best().predicted_drop_pct);
    }
  }
  return 0;
}
