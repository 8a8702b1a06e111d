// Design-space search demo: anneal over the unified DesignPoint space.
//
//   $ ./example_search_demo
//
// Three acts:
//   1. a DesignPoint round-trip -- build a deployment as one value,
//      validate it with named-field issues, serialize it to JSON and
//      parse it back bit-exact;
//   2. a short simulated-annealing run (two chains) over the menu-shaped
//      design space, scored by replaying a fixed Zipf trace through the
//      accounting-only cluster twin;
//   3. the winner reproduced from its own JSON record and re-evaluated --
//      same design, same score, which is what makes a recorded winner a
//      deployable artifact.

#include <cstdio>

#include "latte/latte.hpp"

int main() {
  using namespace latte;
  using namespace latte::search;

  // ---- 1. the deployment as one value ----------------------------------
  DesignPoint dp;
  for (int i = 0; i < 2; ++i) {
    ReplicaDesign rd;
    rd.former.max_batch = 8;
    rd.former.timeout_s = 0.02;
    rd.top_k = 30;
    dp.replicas.push_back(rd);
  }
  dp.router.policy = RouterPolicy::kJoinShortestQueue;
  dp.cache_mode = ClusterCacheMode::kShared;
  dp.cache.enabled = true;

  std::printf("valid: %s\n", CheckDesignPoint(dp).empty() ? "yes" : "no");
  dp.replicas[1].workers = 0;  // break it on purpose
  for (const ConfigIssue& issue : CheckDesignPoint(dp)) {
    std::printf("issue: %s %s\n", issue.field.c_str(), issue.reason.c_str());
  }
  dp.replicas[1].workers = 1;

  const std::string json = DesignPointToJson(dp);
  const DesignPoint back = DesignPointFromJson(json);
  std::printf("round-trip exact: %s\n\n",
              DesignPointToJson(back) == json ? "yes" : "no");

  // ---- 2. a short annealing run ----------------------------------------
  const DesignEvaluator evaluator;
  AnnealingConfig sa;
  sa.chains = 2;
  sa.steps = 40;
  sa.seed = 3;
  const SearchResult result = AnnealSearch(evaluator, sa);
  std::printf("evaluations: %zu, pareto points: %zu\n", result.evaluations,
              result.pareto.size());
  TextTable pareto({"replicas", "slots", "policy", "cache", "p99 (ms)",
                    "throughput (req/s)", "energy (J)"});
  for (const ParetoEntry& entry : result.pareto) {
    pareto.AddRow({std::to_string(entry.point.replicas.size()),
                   std::to_string(BackendSlots(entry.point)),
                   RouterPolicyName(entry.point.router.policy),
                   ClusterCacheModeName(entry.point.cache_mode),
                   Fmt(entry.score.p99_s * 1e3, 1),
                   Fmt(entry.score.throughput_rps, 1),
                   Fmt(entry.score.energy_j, 1)});
  }
  std::printf("%s\n", pareto.Render().c_str());

  // ---- 3. the winner reproduces from its record ------------------------
  const std::string record = DesignPointToJson(result.best);
  const DesignScore replayed =
      evaluator.Evaluate(DesignPointFromJson(record));
  std::printf("winner p99 %.1f ms, cost %.3g; replayed from JSON: %s\n",
              result.best_score.p99_s * 1e3, result.best_score.cost,
              replayed.cost == result.best_score.cost ? "identical"
                                                      : "DIFFERENT");
  return 0;
}
