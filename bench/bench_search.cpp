// Simulated-annealing design-space search benchmark: anneals over the
// unified DesignPoint space and races the winner against every
// hand-tuned bench_cluster fleet shape on the same popularity-skewed
// trace, in the same accounting-only harness.  Emits machine-readable
// JSON (BENCH_search.json, or argv[1]) for the CI perf-gate job.
//
// Everything is deterministic: the evaluator replays a fixed Zipf trace
// through the byte-deterministic cluster twin, and the SA chains are
// seeded walks merged in chain order -- the recorded winner reproduces
// bit-for-bit on any host at any thread count.  The headline the gate
// watches: the SA design must match or beat the best hand-tuned baseline
// on p99 at the shared offered load, and no baseline may Pareto-dominate
// it on (p99, throughput, energy).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/json_writer.hpp"

namespace latte {
namespace {

using search::AnnealingConfig;
using search::AnnealSearch;
using search::BackendSlots;
using search::DesignEvaluator;
using search::DesignPoint;
using search::DesignScore;
using search::Dominates;
using search::ParetoEntry;
using search::ReplicaDesign;
using search::SearchResult;
using search::WriteDesignPointJson;

struct Baseline {
  std::string name;
  DesignPoint point;
  DesignScore score;
};

/// The hand-tuned bench_cluster fleet shapes as DesignPoints: fleets of
/// 2 and 4 behind the four load-balancing policies, 8-deep 50 ms batch
/// formers, one worker per replica, no cache.
std::vector<Baseline> MakeBaselines() {
  const std::vector<std::size_t> fleets = {2, 4};
  const std::vector<RouterPolicy> policies = {
      RouterPolicy::kRoundRobin, RouterPolicy::kJoinShortestQueue,
      RouterPolicy::kLeastOutstandingTokens, RouterPolicy::kLengthBucketed};
  std::vector<Baseline> baselines;
  for (const std::size_t fleet : fleets) {
    for (const RouterPolicy policy : policies) {
      Baseline b;
      b.name = std::to_string(fleet) + "x " + RouterPolicyName(policy);
      for (std::size_t i = 0; i < fleet; ++i) {
        ReplicaDesign rd;
        rd.former.max_batch = 8;
        rd.former.timeout_s = 0.05;
        rd.workers = 1;
        rd.top_k = 30;
        b.point.replicas.push_back(rd);
      }
      b.point.router.policy = policy;
      if (policy == RouterPolicy::kLengthBucketed) {
        b.point.router.length_edges =
            fleet >= 4 ? std::vector<std::size_t>{105, 152, 219}
                       : std::vector<std::size_t>{152};
      }
      baselines.push_back(std::move(b));
    }
  }
  return baselines;
}

void WriteScore(obs::JsonWriter& json, const DesignScore& s) {
  json.Key("p99_ms").Value(s.p99_s * 1e3);
  json.Key("throughput_rps").Value(s.throughput_rps);
  json.Key("energy_j").Value(s.energy_j);
  json.Key("cost").Value(s.cost);
  json.Key("completed").Value(s.completed);
  json.Key("rejected").Value(s.rejected);
}

std::string DesignSummary(const DesignPoint& dp) {
  std::string out = std::to_string(dp.replicas.size()) + " replicas";
  for (const ReplicaDesign& rd : dp.replicas) {
    out += rd.backend == BackendMode::kSharded
               ? " [x" + std::to_string(rd.shard.degree) + " gang]"
               : " [b" + std::to_string(rd.former.max_batch) + "]";
  }
  return out;
}

}  // namespace
}  // namespace latte

int main(int argc, char** argv) {
  using namespace latte;
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_search.json";

  const DesignEvaluator evaluator;
  const ZipfTraceConfig trace_cfg = search::EvaluationTraceConfig();

  std::vector<Baseline> baselines = MakeBaselines();
  const Baseline* best_baseline = nullptr;       // by scalar cost
  const Baseline* best_baseline_p99 = nullptr;   // by p99 alone
  for (Baseline& b : baselines) {
    b.score = evaluator.Evaluate(b.point);
    if (!b.score.valid) {
      std::fprintf(stderr, "baseline %s failed to evaluate\n",
                   b.name.c_str());
      return 1;
    }
    if (best_baseline == nullptr || b.score.cost < best_baseline->score.cost) {
      best_baseline = &b;
    }
    if (best_baseline_p99 == nullptr ||
        b.score.p99_s < best_baseline_p99->score.p99_s) {
      best_baseline_p99 = &b;
    }
  }

  AnnealingConfig sa;
  sa.chains = 4;
  sa.steps = 150;
  sa.seed = 1;
  const SearchResult result = AnnealSearch(evaluator, sa);
  if (!result.best_score.valid) {
    std::fprintf(stderr, "annealing found no valid design\n");
    return 1;
  }

  bool dominated = false;
  for (const Baseline& b : baselines) {
    dominated = dominated || Dominates(b.score, result.best_score);
  }
  const bool beats_p99 =
      result.best_score.p99_s <= best_baseline_p99->score.p99_s;
  const bool beats_cost = result.best_score.cost <= best_baseline->score.cost;
  const bool headline = beats_p99 && beats_cost && !dominated;

  obs::JsonWriter json;
  json.BeginObject();
  json.Key("bench").Value("search");
  json.Key("schema_version").Value(std::size_t{1});
  obs::StampHost(json);
  json.Key("trace").BeginObject();
  json.Key("arrival_rps").Value(trace_cfg.arrival_rate_rps);
  json.Key("requests").Value(trace_cfg.requests);
  json.Key("population").Value(trace_cfg.population);
  json.Key("skew").Value(trace_cfg.skew);
  json.Key("seed").Value(trace_cfg.seed);
  json.Key("duplicate_rate").Value(TraceDuplicateRate(evaluator.trace()));
  json.EndObject();
  json.Key("space").BeginObject();
  json.Key("max_replicas").Value(search::kMaxReplicas);
  json.Key("max_backend_slots").Value(search::kMaxBackendSlots);
  json.EndObject();
  json.Key("sa").BeginObject();
  json.Key("chains").Value(sa.chains);
  json.Key("steps").Value(sa.steps);
  json.Key("cooling").Value(search::kCooling);
  json.Key("seed").Value(sa.seed);
  json.Key("evaluations").Value(result.evaluations);
  json.EndObject();

  json.Key("baselines").BeginArray();
  for (const Baseline& b : baselines) {
    json.BeginObject();
    json.Key("name").Value(b.name);
    json.Key("replicas").Value(b.point.replicas.size());
    WriteScore(json, b.score);
    json.EndObject();
  }
  json.EndArray();

  json.Key("winner").BeginObject();
  json.Key("replicas").Value(result.best.replicas.size());
  json.Key("backend_slots").Value(BackendSlots(result.best));
  json.Key("policy").Value(RouterPolicyName(result.best.router.policy));
  json.Key("cache_mode").Value(ClusterCacheModeName(result.best.cache_mode));
  json.Key("chain").Value(result.best_chain);
  WriteScore(json, result.best_score);
  json.Key("design");
  WriteDesignPointJson(json, result.best);
  json.EndObject();

  json.Key("pareto").BeginArray();
  for (const ParetoEntry& entry : result.pareto) {
    json.BeginObject();
    json.Key("replicas").Value(entry.point.replicas.size());
    json.Key("backend_slots").Value(BackendSlots(entry.point));
    json.Key("policy").Value(RouterPolicyName(entry.point.router.policy));
    json.Key("cache_mode")
        .Value(ClusterCacheModeName(entry.point.cache_mode));
    WriteScore(json, entry.score);
    json.Key("design");
    WriteDesignPointJson(json, entry.point);
    json.EndObject();
  }
  json.EndArray();

  json.Key("chains").BeginArray();
  for (const search::ChainStats& chain : result.chains) {
    json.BeginObject();
    json.Key("chain").Value(chain.chain);
    json.Key("proposed").Value(chain.proposed);
    json.Key("invalid").Value(chain.invalid);
    json.Key("accepted").Value(chain.accepted);
    json.Key("uphill").Value(chain.uphill);
    json.Key("best_cost").Value(chain.best_cost);
    json.EndObject();
  }
  json.EndArray();

  json.Key("headline").BeginObject();
  json.Key("best_baseline").Value(best_baseline->name);
  json.Key("best_baseline_p99_ms")
      .Value(best_baseline_p99->score.p99_s * 1e3);
  json.Key("best_baseline_cost").Value(best_baseline->score.cost);
  json.Key("sa_p99_ms").Value(result.best_score.p99_s * 1e3);
  json.Key("sa_cost").Value(result.best_score.cost);
  json.Key("p99_speedup")
      .Value(best_baseline_p99->score.p99_s / result.best_score.p99_s);
  json.Key("sa_beats_best_baseline").Value(headline);
  json.EndObject();
  json.EndObject();

  if (!json.WriteFile(out_path)) return 1;

  std::printf("== SA design-space search vs hand-tuned baselines ==\n\n");
  TextTable table({"design", "p99 (ms)", "throughput (req/s)", "energy (J)",
                   "cost", "rejected"});
  for (const Baseline& b : baselines) {
    table.AddRow({b.name, Fmt(b.score.p99_s * 1e3, 1),
                  Fmt(b.score.throughput_rps, 1), Fmt(b.score.energy_j, 1),
                  Fmt(b.score.cost, 3), std::to_string(b.score.rejected)});
  }
  table.AddRow({"SA winner", Fmt(result.best_score.p99_s * 1e3, 1),
                Fmt(result.best_score.throughput_rps, 1),
                Fmt(result.best_score.energy_j, 1),
                Fmt(result.best_score.cost, 3),
                std::to_string(result.best_score.rejected)});
  std::printf("%s\n", table.Render().c_str());
  std::printf("winner: %s, %s routing, %s cache\n",
              DesignSummary(result.best).c_str(),
              RouterPolicyName(result.best.router.policy),
              ClusterCacheModeName(result.best.cache_mode));

  std::printf("\nPareto front (p99 / throughput / energy):\n");
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

  std::printf(
      "headline: SA p99 %.1f ms vs best baseline %.1f ms (%s), cost %.3g vs "
      "%.3g -- %s\n",
      result.best_score.p99_s * 1e3, best_baseline_p99->score.p99_s * 1e3,
      best_baseline_p99->name.c_str(), result.best_score.cost,
      best_baseline->score.cost,
      headline ? "SA BEATS OR TIES" : "SA LOSES");
  if (!headline) {
    std::fprintf(stderr,
                 "FAIL: SA winner does not beat the hand-tuned baselines "
                 "(p99 %s, cost %s, dominated %s)\n",
                 beats_p99 ? "ok" : "worse", beats_cost ? "ok" : "worse",
                 dominated ? "yes" : "no");
    return 1;
  }
  return 0;
}
