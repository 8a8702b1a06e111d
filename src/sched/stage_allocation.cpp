#include "sched/stage_allocation.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "fpga/timing.hpp"

namespace latte {
namespace {

/// Hard cap on any single operator's parallelism (port/banking limits).
constexpr double kMaxParallelism = 4096;

bool IsLutClass(const OpSpec& spec) {
  // Operators whose dominant arithmetic is LUT-fabric work.
  return spec.lut_ops.quad > 0 || spec.lut_ops.lin > 0;
}

/// Adds `lanes` of operator `spec` to the DSP or the LUT tally.
void ChargeLanes(const OpSpec& spec, double lanes, double& dsp, double& lut) {
  if (IsLutClass(spec)) {
    lut += lanes * kLutsPerLane;
  } else {
    dsp += lanes;
  }
}

}  // namespace

std::size_t AllocationResult::Stages() const {
  int stages = 0;
  for (const auto& op : ops) stages = std::max(stages, op.stage_hint);
  return static_cast<std::size_t>(stages);
}

double AllocationResult::TotalDsp() const {
  double dsp = 0.0;
  for (std::size_t v = 0; v < ops.size(); ++v) {
    if (!IsLutClass(ops[v])) dsp += lanes[v];
  }
  return dsp;
}

double AllocationResult::TotalLut() const {
  double lut = 0.0;
  for (std::size_t v = 0; v < ops.size(); ++v) {
    if (IsLutClass(ops[v])) lut += lanes[v] * kLutsPerLane;
  }
  return lut;
}

AllocationResult AllocateStages(const OpGraph& g, const FpgaSpec& spec,
                                double s_avg) {
  if (g.size() == 0) return {};
  const auto weights = g.Weights(s_avg);
  const auto prio = g.Priorities(s_avg);

  // Visit vertices in decreasing priority; ties by vertex id for
  // determinism.  For a dataflow chain this is exactly dataflow order.
  std::vector<std::size_t> order(g.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (prio[a] != prio[b]) return prio[a] > prio[b];
                     return a < b;
                   });

  AllocationResult res;
  for (std::size_t v = 0; v < g.size(); ++v) res.ops.push_back(g.node(v).spec);
  res.lanes.assign(g.size(), 1.0);
  double committed_dsp = 0.0;  // lanes in closed stages
  double committed_lut = 0.0;

  int stage = 1;
  std::vector<std::size_t> open;  // members of the open stage
  std::vector<double> rebalanced;
  for (std::size_t v : order) {
    if (!open.empty()) {
      // Tentatively rebalance the open stage against the newcomer.
      rebalanced.clear();
      bool overflow = false;
      for (std::size_t u : open) {
        rebalanced.push_back(res.lanes[u] *
                             std::ceil(weights[u] / weights[v]));
        if (rebalanced.back() > kMaxParallelism) overflow = true;
      }
      // Cost of: closed stages + rebalanced open stage + the newcomer.
      double dsp = committed_dsp;
      double lut = committed_lut;
      for (std::size_t i = 0; i < open.size(); ++i) {
        ChargeLanes(res.ops[open[i]], rebalanced[i], dsp, lut);
      }
      ChargeLanes(res.ops[v], 1.0, dsp, lut);

      if (!overflow && dsp <= spec.dsp && lut <= spec.lut) {
        for (std::size_t i = 0; i < open.size(); ++i) {
          res.lanes[open[i]] = rebalanced[i];
        }
      } else {
        // Close the stage; the newcomer opens a fresh one.
        for (std::size_t u : open) {
          double d = 0, l = 0;
          ChargeLanes(res.ops[u], res.lanes[u], d, l);
          committed_dsp += d;
          committed_lut += l;
        }
        open.clear();
        ++stage;
      }
    }
    open.push_back(v);
    res.ops[v].stage_hint = stage;
  }
  return res;
}

}  // namespace latte
