#include "metrics/design_explorer.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "metrics/accuracy.hpp"
#include "metrics/fidelity.hpp"
#include "workload/synthetic.hpp"

namespace latte {

std::vector<ExplorerPoint> ExplorationResult::ParetoFront() const {
  std::vector<ExplorerPoint> front;
  for (const auto& p : points) {
    if (!p.feasible) continue;
    bool dominated = false;
    for (const auto& q : points) {
      if (!q.feasible) continue;
      const bool better_or_equal =
          q.sequences_per_s >= p.sequences_per_s &&
          q.predicted_drop_pct <= p.predicted_drop_pct;
      const bool strictly_better =
          q.sequences_per_s > p.sequences_per_s ||
          q.predicted_drop_pct < p.predicted_drop_pct;
      if (better_or_equal && strictly_better) {
        dominated = true;
        break;
      }
    }
    if (!dominated) front.push_back(p);
  }
  std::sort(front.begin(), front.end(),
            [](const ExplorerPoint& a, const ExplorerPoint& b) {
              return a.sequences_per_s > b.sequences_per_s;
            });
  return front;
}

ExplorationResult ExploreDesign(const ModelConfig& model,
                                const DatasetSpec& dataset,
                                const std::vector<std::size_t>& k_candidates) {
  constexpr int kBitCandidates[] = {1, 4};
  constexpr double kMaxDropPct = 2.0;  // accuracy budget (paper: < 2%)
  constexpr std::size_t kBatch = 16;
  constexpr std::uint64_t kSeed = 42;
  constexpr std::size_t kFidelityReps = 4;  // problems per fidelity estimate
  if (k_candidates.empty()) {
    throw std::invalid_argument("ExploreDesign: empty candidate set");
  }
  // One reference batch shared by every point: the comparison is apples to
  // apples.
  Rng rng(kSeed);
  LengthSampler sampler(dataset);
  const auto lens = sampler.SampleMany(rng, kBatch);
  const auto wl = WorkloadForDataset(dataset, model.encoder.head_dim());

  ExplorationResult res;
  double best_rate = -1;
  for (std::size_t k : k_candidates) {
    for (int bits : kBitCandidates) {
      ExplorerPoint pt;
      pt.top_k = k;
      pt.bits = bits;

      // Performance from the accelerator model.
      AcceleratorConfig acc;
      acc.top_k = k;
      pt.latency_s = RunAccelerator(model, lens, acc).makespan;
      pt.sequences_per_s = static_cast<double>(lens.size()) / pt.latency_s;

      // Fidelity -> calibrated accuracy drop.
      Rng frng(kSeed + k * 131 + static_cast<std::uint64_t>(bits));
      double mass = 0;
      for (std::size_t r = 0; r < kFidelityReps; ++r) {
        const auto p =
            GenerateAttentionProblem(frng, sampler.Sample(frng), wl);
        SparseAttentionConfig sa;
        sa.top_k = k;
        sa.bits = bits;
        mass += EvaluateFidelity(p, sa).retained_mass;
      }
      pt.retained_mass = mass / static_cast<double>(kFidelityReps);
      pt.predicted_drop_pct = PredictedDrop(dataset, pt.retained_mass);
      pt.feasible = pt.predicted_drop_pct <= kMaxDropPct;

      if (pt.feasible && pt.sequences_per_s > best_rate) {
        best_rate = pt.sequences_per_s;
        res.best_index = res.points.size();
        res.found_feasible = true;
      }
      res.points.push_back(pt);
    }
  }
  return res;
}

}  // namespace latte
