#include "search/anneal.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "runtime/thread_pool.hpp"
#include "search/design_space.hpp"
#include "tensor/rng.hpp"

namespace latte::search {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kMinTemp = 1e-12;  ///< temperature floor

/// Keeps `front` a non-dominated set: a dominated candidate is dropped,
/// an admitted one evicts everything it dominates.
void InsertPareto(std::vector<ParetoEntry>& front, ParetoEntry entry) {
  for (const ParetoEntry& f : front) {
    if (Dominates(f.score, entry.score)) return;
  }
  front.erase(std::remove_if(front.begin(), front.end(),
                             [&](const ParetoEntry& f) {
                               return Dominates(entry.score, f.score);
                             }),
              front.end());
  front.push_back(std::move(entry));
}

struct ChainResult {
  ChainStats stats;
  bool has_best = false;
  DesignPoint best;
  DesignScore best_score;
  std::vector<ParetoEntry> front;
  std::size_t evaluations = 0;
};

ChainResult RunChain(const DesignEvaluator& eval, const AnnealingConfig& cfg,
                     std::size_t chain) {
  ChainResult out;
  out.stats.chain = chain;
  out.stats.best_cost = kInf;
  // Per-chain stream: a function of (seed, chain) alone, so chain k walks
  // the same path whether it runs on one thread or sixteen.
  Rng rng(MixHash64(cfg.seed ^ MixHash64(chain + 1)));

  DesignPoint cur;
  DesignScore cur_score;
  bool have_cur = false;
  for (int attempt = 0; attempt < 16 && !have_cur; ++attempt) {
    cur = SampleDesign(rng);
    ++out.evaluations;
    cur_score = eval.Evaluate(cur);
    have_cur = cur_score.valid;
  }
  if (!have_cur) return out;  // space yields nothing servable

  out.best = cur;
  out.best_score = cur_score;
  out.has_best = true;
  out.stats.best_cost = cur_score.cost;
  InsertPareto(out.front, {cur, cur_score});

  double temp = std::max(cur_score.cost, 1e-30);
  for (std::size_t step = 0; step < cfg.steps;
       ++step, temp = std::max(kMinTemp, temp * kCooling)) {
    DesignPoint prop = MutateDesign(cur, rng);
    ++out.stats.proposed;
    if (!CheckInSpace(prop).empty()) {
      ++out.stats.invalid;  // the unified validators are the feasibility
      continue;             // oracle: over-budget / off-menu moves die here
    }
    ++out.evaluations;
    DesignScore prop_score = eval.Evaluate(prop);
    if (!prop_score.valid) {
      ++out.stats.invalid;
      continue;
    }
    InsertPareto(out.front, {prop, prop_score});
    bool uphill = false;
    bool accept = prop_score.cost <= cur_score.cost;
    if (!accept) {
      const double prob =
          PortableExp((cur_score.cost - prop_score.cost) / temp);
      accept = rng.NextUniform() < prob;
      uphill = accept;
    }
    if (!accept) continue;
    cur = std::move(prop);
    cur_score = prop_score;
    ++out.stats.accepted;
    if (uphill) ++out.stats.uphill;
    if (cur_score.cost < out.best_score.cost) {
      out.best = cur;
      out.best_score = cur_score;
      out.stats.best_cost = cur_score.cost;
    }
  }
  return out;
}

}  // namespace

double PortableExp(double x) {
  if (x >= 0) return 1.0;
  if (x < -745.0) return 0.0;  // below double underflow
  // e^x = 2^floor(x/ln2) * e^z with z = x - floor(x/ln2)*ln2 in [0, ln2).
  const double y = x * 1.4426950408889634;  // x / ln 2
  const double f = std::floor(y);
  const double z = (y - f) * 0.6931471805599453;
  // Degree-12 Taylor kernel: max relative error ~ln2^13/13! ~ 1e-12 on
  // the reduced range, well under the 1e-9 the tests pin.
  double sum = 1.0;
  double term = 1.0;
  for (int k = 1; k <= 12; ++k) {
    term *= z / static_cast<double>(k);
    sum += term;
  }
  return std::ldexp(sum, static_cast<int>(f));
}

SearchResult AnnealSearch(const DesignEvaluator& evaluator,
                          const AnnealingConfig& cfg) {
  SearchResult result;
  result.best_score.cost = kInf;

  std::vector<ChainResult> chains(cfg.chains);
  {
    ThreadPool pool(cfg.threads);
    for (std::size_t i = 0; i < cfg.chains; ++i) {
      pool.Submit([&evaluator, &cfg, &chains, i] {
        chains[i] = RunChain(evaluator, cfg, i);
      });
    }
    pool.Wait();
  }

  // Merge in chain order: ties in cost resolve to the lowest chain, and
  // the Pareto fold sees entries in a fixed sequence -- both independent
  // of which thread finished first.
  std::vector<ParetoEntry> merged;
  for (std::size_t i = 0; i < chains.size(); ++i) {
    ChainResult& chain = chains[i];
    result.chains.push_back(chain.stats);
    result.evaluations += chain.evaluations;
    if (chain.has_best && chain.best_score.cost < result.best_score.cost) {
      result.best = chain.best;
      result.best_score = chain.best_score;
      result.best_chain = i;
    }
    for (ParetoEntry& entry : chain.front) {
      InsertPareto(merged, std::move(entry));
    }
  }

  // Deterministic order + dedup: entries with an identical objective
  // triple collapse to one representative (the lexicographically smallest
  // serialization -- a front is a set of tradeoffs, not of designs).
  struct Keyed {
    std::string json;
    ParetoEntry entry;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(merged.size());
  for (ParetoEntry& entry : merged) {
    keyed.push_back({DesignPointToJson(entry.point), std::move(entry)});
  }
  std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
    const DesignScore& sa = a.entry.score;
    const DesignScore& sb = b.entry.score;
    if (sa.p99_s != sb.p99_s) return sa.p99_s < sb.p99_s;
    if (sa.throughput_rps != sb.throughput_rps) {
      return sa.throughput_rps > sb.throughput_rps;
    }
    if (sa.energy_j != sb.energy_j) return sa.energy_j < sb.energy_j;
    return a.json < b.json;
  });
  for (std::size_t i = 0; i < keyed.size(); ++i) {
    if (i > 0) {
      const DesignScore& a = keyed[i].entry.score;
      const DesignScore& b = keyed[i - 1].entry.score;
      if (a.p99_s == b.p99_s && a.throughput_rps == b.throughput_rps &&
          a.energy_j == b.energy_j) {
        continue;
      }
    }
    result.pareto.push_back(std::move(keyed[i].entry));
  }
  return result;
}

}  // namespace latte::search
