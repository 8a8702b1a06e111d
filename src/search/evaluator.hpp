#pragma once
// DesignEvaluator: scores a DesignPoint by replaying a fixed trace
// through the accounting-only ServingCluster twin.
//
// The evaluator fixes the experiment -- a scaled-down BERT-base served
// on SQuAD-shaped Zipf traffic (EvaluationTraceConfig), the default
// accelerator shape at every backend slot, fixed seeds -- and the design
// owns only the deployment shape, so two candidates are always compared
// on identical work.  Every replica runs with `execute = false` and the
// accelerator service model, which makes one evaluation a pure
// virtual-time replay: byte-identical at any thread count and cheap
// enough for thousands of SA steps.
//
// Scoring follows SET's e^n * d shape at n = 1: the scalar cost is delay
// (p99 latency, inflated by a rejection penalty so the search cannot win
// by shedding load) times energy.  The full (p99, throughput, energy)
// triple is kept alongside for Pareto accounting.

#include <cstddef>
#include <vector>

#include "model/inference.hpp"
#include "search/design_point.hpp"
#include "workload/arrivals.hpp"

namespace latte::search {

/// The popularity-skewed arrival trace every design is scored on (a
/// skewed ~4 s trace: identities give result caches a reason to exist, so
/// a design with a cache earns its hit rate here).
ZipfTraceConfig EvaluationTraceConfig();

/// Everything one evaluation produces.
struct DesignScore {
  bool valid = false;     ///< false: rejected by validation or served nothing
  ConfigIssues issues;    ///< why, when invalid
  double p99_s = 0;       ///< fleet p99 latency
  double throughput_rps = 0;
  double energy_j = 0;    ///< dynamic (executed work) + static (slots x span)
  std::size_t offered = 0;
  std::size_t completed = 0;  ///< requests the fleet finished
  std::size_t rejected = 0;   ///< bounced off every routable replica
  double cost = 0;        ///< scalar SA objective; +inf when invalid
};

/// True when `a` is at least as good as `b` on every objective
/// (p99 down, throughput up, energy down) and strictly better on one.
bool Dominates(const DesignScore& a, const DesignScore& b);

/// Replays the fixed trace through a design's accounting-only cluster and
/// folds the result into a DesignScore.  Evaluate() is const and
/// thread-compatible: parallel SA chains share one evaluator.
class DesignEvaluator {
 public:
  DesignEvaluator();

  const std::vector<TimedRequest>& trace() const { return trace_; }

  /// Scores one design.  Invalid designs (CheckDesignPoint issues, or a
  /// deployment that completes nothing) come back with valid = false and
  /// an infinite cost -- the SA loop counts them as rejected mutations.
  DesignScore Evaluate(const DesignPoint& dp) const;

 private:
  ModelInstance model_;
  std::vector<TimedRequest> trace_;
};

}  // namespace latte::search
