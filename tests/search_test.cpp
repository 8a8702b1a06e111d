// Tests for the design-space search layer: DesignPoint exact JSON
// round-trip, unified per-field validation, menu-bounded mutation over
// long seeded walks, evaluator byte-determinism, thread-count-invariant
// annealing, and the headline gate -- SA matches or beats every
// hand-tuned bench_cluster baseline on the shared trace.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "latte/latte.hpp"

namespace latte {
namespace {

using search::AnnealingConfig;
using search::AnnealSearch;
using search::BackendSlots;
using search::CheckDesignPoint;
using search::CheckInSpace;
using search::DesignEvaluator;
using search::DesignPoint;
using search::DesignPointFromJson;
using search::DesignPointToJson;
using search::DesignScore;
using search::DesignSpace;
using search::Dominates;
using search::EvaluatorConfig;
using search::MutateDesign;
using search::ReplicaDesign;
using search::SampleDesign;
using search::SearchResult;

DesignPoint SmallDesign(std::size_t replicas = 2) {
  DesignPoint dp;
  for (std::size_t i = 0; i < replicas; ++i) {
    ReplicaDesign rd;
    rd.former.max_batch = 8;
    rd.former.timeout_s = 0.02;
    rd.workers = 1;
    rd.top_k = 30;
    dp.replicas.push_back(rd);
  }
  return dp;
}

/// The hand-tuned bench_cluster fleet shapes as DesignPoints: fleets of
/// 2 and 4 behind the four load-balancing policies, 8-deep 50 ms batch
/// formers, one worker per replica, no cache.
std::vector<DesignPoint> BenchClusterBaselines() {
  const std::vector<std::size_t> fleets = {2, 4};
  const std::vector<RouterPolicy> policies = {
      RouterPolicy::kRoundRobin, RouterPolicy::kJoinShortestQueue,
      RouterPolicy::kLeastOutstandingTokens, RouterPolicy::kLengthBucketed};
  std::vector<DesignPoint> baselines;
  for (const std::size_t fleet : fleets) {
    for (const RouterPolicy policy : policies) {
      DesignPoint dp;
      for (std::size_t i = 0; i < fleet; ++i) {
        ReplicaDesign rd;
        rd.former.max_batch = 8;
        rd.former.timeout_s = 0.05;
        rd.workers = 1;
        rd.top_k = 30;
        dp.replicas.push_back(rd);
      }
      dp.router.policy = policy;
      if (policy == RouterPolicy::kLengthBucketed) {
        dp.router.length_edges = fleet >= 4
                                     ? std::vector<std::size_t>{105, 152, 219}
                                     : std::vector<std::size_t>{152};
      }
      baselines.push_back(dp);
    }
  }
  return baselines;
}

const DesignEvaluator& SharedEvaluator() {
  static DesignEvaluator evaluator{EvaluatorConfig{}};
  return evaluator;
}

TEST(DesignPointTest, JsonRoundTripIsExact) {
  DesignPoint dp = SmallDesign(2);
  dp.replicas[1].backend = BackendMode::kSharded;
  dp.replicas[1].shard.degree = 4;
  dp.replicas[1].former.timeout_s = 0.1 / 3.0;  // not exactly representable
  dp.replicas[1].former.sort_by_length = true;
  dp.router.policy = RouterPolicy::kLengthBucketed;
  dp.router.length_edges = {105, 152, 219};
  dp.cache_mode = ClusterCacheMode::kShared;
  dp.cache.enabled = true;
  dp.cache.eviction = EvictionPolicy::kSegmentedLru;
  dp.cache.capacity_bytes = 8u << 20;
  dp.cache.ttl_s = 12.5;

  const std::string json = DesignPointToJson(dp);
  const DesignPoint back = DesignPointFromJson(json);
  EXPECT_EQ(json, DesignPointToJson(back));
  EXPECT_EQ(back.replicas[1].former.timeout_s,
            dp.replicas[1].former.timeout_s);  // bit-exact double
  EXPECT_EQ(back.replicas[1].backend, BackendMode::kSharded);
  EXPECT_TRUE(back.cache.enabled);  // implied by mode on parse
  EXPECT_TRUE(CheckDesignPoint(back).empty());
}

TEST(DesignPointTest, JsonRejectsMalformedInput) {
  EXPECT_THROW(DesignPointFromJson("{"), std::invalid_argument);
  EXPECT_THROW(DesignPointFromJson("{}"), std::invalid_argument);
  const std::string json = DesignPointToJson(SmallDesign());
  EXPECT_THROW(DesignPointFromJson(json + "x"), std::invalid_argument);
  // A fractional count is rejected, not truncated.
  std::string fractional = json;
  const std::size_t at = fractional.find("\"workers\":");
  ASSERT_NE(at, std::string::npos);
  fractional.insert(fractional.find_first_of(",}", at), ".5");
  EXPECT_THROW(DesignPointFromJson(fractional), std::invalid_argument);
}

TEST(DesignPointTest, JsonRejectsNestingPastTheDepthLimit) {
  // 200 000 nested arrays once overflowed the recursive parser's stack;
  // every reader sharing it must refuse them with the offending offset.
  const std::size_t deep = 200000;
  const std::string bomb = std::string(deep, '[') + std::string(deep, ']');
  EXPECT_THROW(DesignPointFromJson(bomb), std::invalid_argument);
  EXPECT_THROW(TraceFromJson(bomb), std::invalid_argument);
  try {
    search::ParseJson(bomb);
    ADD_FAILURE() << "ParseJson accepted " << deep << " nested arrays";
  } catch (const std::invalid_argument& e) {
    const std::string offset =
        "at offset " + std::to_string(search::kMaxJsonDepth);
    EXPECT_NE(std::string(e.what()).find(offset), std::string::npos)
        << e.what();
  }
  const std::size_t limit = search::kMaxJsonDepth;
  const std::string ok = std::string(limit, '[') + std::string(limit, ']');
  EXPECT_NO_THROW(search::ParseJson(ok));
}

TEST(DesignPointTest, CheckNamesEveryIllegalField) {
  DesignPoint dp = SmallDesign(2);
  dp.replicas[0].former.max_batch = 0;
  dp.replicas[1].workers = 0;
  dp.replicas[1].top_k = 0;
  ConfigIssues issues = CheckDesignPoint(dp);
  EXPECT_TRUE(HasIssueFor(issues, "replicas[0].former.max_batch"));
  EXPECT_TRUE(HasIssueFor(issues, "replicas[1].workers"));
  EXPECT_TRUE(HasIssueFor(issues, "replicas[1].top_k"));

  dp = SmallDesign(1);
  dp.replicas[0].backend = BackendMode::kSharded;
  dp.replicas[0].shard.degree = 1;
  EXPECT_TRUE(HasIssueFor(CheckDesignPoint(dp), "replicas[0].shard.degree"));

  dp = SmallDesign(2);
  dp.router.policy = RouterPolicy::kLengthBucketed;  // no edges
  EXPECT_TRUE(HasIssueFor(CheckDesignPoint(dp), "router.length_edges"));

  dp = SmallDesign(2);
  dp.cache_mode = ClusterCacheMode::kShared;
  dp.cache.eviction = EvictionPolicy::kSegmentedLru;
  dp.cache.protected_fraction = 0;
  EXPECT_TRUE(
      HasIssueFor(CheckDesignPoint(dp), "cache.protected_fraction"));

  EXPECT_TRUE(HasIssueFor(CheckDesignPoint(DesignPoint{}), "replicas"));
  EXPECT_TRUE(CheckDesignPoint(SmallDesign()).empty());
}

TEST(DesignPointTest, AdaptersMatchHandWrittenConfigs) {
  DesignPoint dp = SmallDesign(2);
  dp.replicas[0].queue_capacity = 64;
  dp.replicas[0].top_k = 16;
  dp.cache_mode = ClusterCacheMode::kPerReplica;
  dp.cache.enabled = true;
  const ClusterConfig cfg = search::ClusterConfigFromDesignPoint(dp);
  ASSERT_EQ(cfg.replicas.size(), 2u);
  EXPECT_EQ(cfg.replicas[0].engine.former.max_batch, 8u);
  EXPECT_EQ(cfg.replicas[0].engine.queue_capacity, 64u);
  EXPECT_EQ(cfg.replicas[0].engine.inference.sparse.top_k, 16u);
  EXPECT_EQ(cfg.cache.mode, ClusterCacheMode::kPerReplica);
  EXPECT_EQ(cfg.router.policy, dp.router.policy);
}

TEST(DesignSpaceTest, SampleAlwaysLandsInSpace) {
  const DesignSpace space;
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const DesignPoint dp = SampleDesign(space, rng);
    const ConfigIssues issues = CheckInSpace(space, dp);
    ASSERT_TRUE(issues.empty())
        << issues[0].field << " " << issues[0].reason;
    EXPECT_LE(BackendSlots(dp), space.max_backend_slots);
  }
}

TEST(DesignSpaceTest, MutationStaysMenuValuedOverTenThousandSteps) {
  const DesignSpace space;
  Rng rng(17);
  DesignPoint cur = SampleDesign(space, rng);
  std::size_t over_budget = 0;
  for (int step = 0; step < 10000; ++step) {
    const DesignPoint prop = MutateDesign(space, cur, rng);
    const ConfigIssues issues = CheckInSpace(space, prop);
    if (issues.empty()) {
      cur = prop;
      continue;
    }
    // The only legal way out of the space is the slot budget; every knob
    // must stay on its menu.
    for (const ConfigIssue& issue : issues) {
      EXPECT_EQ(issue.field, "replicas") << issue.field << " " << issue.reason;
    }
    ++over_budget;
  }
  EXPECT_GT(over_budget, 0u);  // the rejection path is actually exercised
}

TEST(DesignSpaceTest, CheckInSpaceNamesOffMenuKnobs) {
  const DesignSpace space;
  DesignPoint dp = SmallDesign(1);
  dp.replicas[0].former.max_batch = 7;  // legal, but off the menu
  EXPECT_TRUE(
      HasIssueFor(CheckInSpace(space, dp), "replicas[0].former.max_batch"));
  dp = SmallDesign(1);
  dp.replicas[0].workers = 4;
  dp.replicas[0].backend = BackendMode::kSharded;
  dp.replicas[0].shard.degree = 2;  // 8 slots > budget of 6
  EXPECT_TRUE(HasIssueFor(CheckInSpace(space, dp), "replicas"));
}

TEST(DesignEvaluatorTest, EvaluationIsByteDeterministic) {
  const DesignEvaluator& evaluator = SharedEvaluator();
  DesignPoint dp = BenchClusterBaselines()[3];  // 2x length-bucketed
  dp.cache_mode = ClusterCacheMode::kShared;
  dp.cache.enabled = true;
  const DesignScore a = evaluator.Evaluate(dp);
  const DesignScore b = evaluator.Evaluate(dp);
  const DesignScore c = DesignEvaluator(EvaluatorConfig{}).Evaluate(dp);
  ASSERT_TRUE(a.valid);
  for (const DesignScore* s : {&b, &c}) {
    EXPECT_EQ(a.p99_s, s->p99_s);
    EXPECT_EQ(a.throughput_rps, s->throughput_rps);
    EXPECT_EQ(a.energy_j, s->energy_j);
    EXPECT_EQ(a.cost, s->cost);
    EXPECT_EQ(a.completed, s->completed);
    EXPECT_EQ(a.rejected, s->rejected);
  }
}

TEST(DesignEvaluatorTest, InvalidDesignsComeBackRejectedNotThrown) {
  DesignPoint dp = SmallDesign(1);
  dp.replicas[0].workers = 0;
  const DesignScore score = SharedEvaluator().Evaluate(dp);
  EXPECT_FALSE(score.valid);
  EXPECT_TRUE(HasIssueFor(score.issues, "replicas[0].workers"));
  EXPECT_TRUE(std::isinf(score.cost));
}

TEST(AnnealingTest, PortableExpMatchesLibmClosely) {
  for (double x = -30; x <= 0; x += 0.37) {
    EXPECT_NEAR(search::PortableExp(x), std::exp(x),
                std::abs(std::exp(x)) * 1e-9 + 1e-300);
  }
  EXPECT_EQ(search::PortableExp(0), 1.0);
  EXPECT_EQ(search::PortableExp(-1000), 0.0);
}

TEST(AnnealingTest, SearchIsDeterministicAtAnyThreadCount) {
  const DesignSpace space;
  AnnealingConfig cfg;
  cfg.chains = 3;
  cfg.steps = 15;
  cfg.seed = 5;
  cfg.threads = 1;
  const SearchResult one = AnnealSearch(space, SharedEvaluator(), cfg);
  cfg.threads = 4;
  const SearchResult four = AnnealSearch(space, SharedEvaluator(), cfg);

  ASSERT_TRUE(one.best_score.valid);
  EXPECT_EQ(DesignPointToJson(one.best), DesignPointToJson(four.best));
  EXPECT_EQ(one.best_score.cost, four.best_score.cost);
  EXPECT_EQ(one.best_chain, four.best_chain);
  EXPECT_EQ(one.evaluations, four.evaluations);
  ASSERT_EQ(one.pareto.size(), four.pareto.size());
  for (std::size_t i = 0; i < one.pareto.size(); ++i) {
    EXPECT_EQ(DesignPointToJson(one.pareto[i].point),
              DesignPointToJson(four.pareto[i].point));
    EXPECT_EQ(one.pareto[i].score.cost, four.pareto[i].score.cost);
  }
  ASSERT_EQ(one.chains.size(), four.chains.size());
  for (std::size_t i = 0; i < one.chains.size(); ++i) {
    EXPECT_EQ(one.chains[i].proposed, four.chains[i].proposed);
    EXPECT_EQ(one.chains[i].invalid, four.chains[i].invalid);
    EXPECT_EQ(one.chains[i].accepted, four.chains[i].accepted);
    EXPECT_EQ(one.chains[i].best_cost, four.chains[i].best_cost);
  }
}

TEST(AnnealingTest, ParetoFrontIsNonDominatedAndCountsInvalids) {
  const DesignSpace space;
  AnnealingConfig cfg;
  cfg.chains = 2;
  cfg.steps = 30;
  cfg.seed = 9;
  cfg.threads = 2;
  const SearchResult result = AnnealSearch(space, SharedEvaluator(), cfg);
  ASSERT_FALSE(result.pareto.empty());
  for (std::size_t i = 0; i < result.pareto.size(); ++i) {
    for (std::size_t j = 0; j < result.pareto.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(
          Dominates(result.pareto[i].score, result.pareto[j].score));
    }
  }
  std::size_t invalid = 0;
  for (const search::ChainStats& chain : result.chains) {
    invalid += chain.invalid;
  }
  EXPECT_GT(invalid, 0u);  // rejected mutations flow through the validators
}

TEST(AnnealingTest, BeatsOrTiesEveryHandTunedBaseline) {
  const DesignEvaluator& evaluator = SharedEvaluator();
  std::vector<DesignScore> baseline_scores;
  double best_baseline_cost = std::numeric_limits<double>::infinity();
  for (const DesignPoint& baseline : BenchClusterBaselines()) {
    ASSERT_TRUE(CheckInSpace(DesignSpace{}, baseline).empty());
    const DesignScore score = evaluator.Evaluate(baseline);
    ASSERT_TRUE(score.valid);
    best_baseline_cost = std::min(best_baseline_cost, score.cost);
    baseline_scores.push_back(score);
  }

  AnnealingConfig cfg;
  cfg.chains = 3;
  cfg.steps = 60;
  cfg.seed = 1;
  const SearchResult result =
      AnnealSearch(DesignSpace{}, evaluator, cfg);
  ASSERT_TRUE(result.best_score.valid);
  EXPECT_LE(result.best_score.cost, best_baseline_cost);
  for (const DesignScore& baseline : baseline_scores) {
    EXPECT_FALSE(Dominates(baseline, result.best_score));
  }
}

}  // namespace
}  // namespace latte
