#include "sched/stage_allocation.hpp"

#include <algorithm>
#include <cmath>

#include "fpga/timing.hpp"

namespace latte {
namespace {

/// Hard cap on any single operator's parallelism (port/banking limits).
constexpr double kMaxParallelism = 4096;

/// Operator weights W(v, s_avg): FLOPs at s_avg, at least 1 so that pure
/// LUT work keeps the ceil ratios finite.
std::vector<double> Weights(const std::vector<OpSpec>& ops, double s_avg) {
  std::vector<double> w(ops.size());
  for (std::size_t v = 0; v < ops.size(); ++v) {
    w[v] = std::max(1.0, ops[v].flops.Eval(s_avg));
  }
  return w;
}

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

std::vector<double> Priorities(const std::vector<OpSpec>& ops,
                               double s_avg) {
  auto p = Weights(ops, s_avg);
  // Sweep from the sink, whose successor term is 0.
  double next = 0.0;
  for (std::size_t v = ops.size(); v-- > 0;) {
    p[v] += next;
    next = p[v];
  }
  return p;
}

AllocationResult AllocateStages(const std::vector<OpSpec>& ops,
                                const FpgaSpec& spec, double s_avg) {
  const auto weights = Weights(ops, s_avg);
  AllocationResult res;
  res.ops = ops;
  res.lanes.assign(ops.size(), 1.0);
  double committed_dsp = 0.0;  // lanes in closed stages
  double committed_lut = 0.0;

  int stage = 1;
  std::size_t first = 0;  // the open stage holds operators [first, v)
  std::vector<double> rebalanced;
  // Decreasing Eq. 1 priority is list order on a chain.
  for (std::size_t v = 0; v < ops.size(); ++v) {
    if (v > first) {
      // Tentatively rebalance the open stage against the newcomer.
      rebalanced.clear();
      bool overflow = false;
      for (std::size_t u = first; u < v; ++u) {
        rebalanced.push_back(res.lanes[u] *
                             std::ceil(weights[u] / weights[v]));
        if (rebalanced.back() > kMaxParallelism) overflow = true;
      }
      // Cost of: closed stages + rebalanced open stage + the newcomer.
      double dsp = committed_dsp;
      double lut = committed_lut;
      for (std::size_t u = first; u < v; ++u) {
        ChargeLanes(ops[u], rebalanced[u - first], dsp, lut);
      }
      ChargeLanes(ops[v], 1.0, dsp, lut);

      if (!overflow && dsp <= spec.dsp && lut <= spec.lut) {
        for (std::size_t u = first; u < v; ++u) {
          res.lanes[u] = rebalanced[u - first];
        }
      } else {
        // Close the stage; the newcomer opens a fresh one.
        for (std::size_t u = first; u < v; ++u) {
          ChargeLanes(ops[u], res.lanes[u], committed_dsp, committed_lut);
        }
        first = v;
        ++stage;
      }
    }
    res.ops[v].stage_hint = stage;
  }
  return res;
}

}  // namespace latte
