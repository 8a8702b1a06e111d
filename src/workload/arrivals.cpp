#include "workload/arrivals.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <unordered_set>

namespace latte {

ConfigIssues CheckPoissonTraceConfig(const PoissonTraceConfig& cfg) {
  ConfigIssues issues;
  // Negated comparison so NaN fails validation instead of slipping past.
  if (!(cfg.arrival_rate_rps > 0)) {
    AddIssue(issues, "arrival_rate_rps",
             "must be > 0 (got " + std::to_string(cfg.arrival_rate_rps) + ")");
  }
  if (cfg.requests == 0) {
    AddIssue(issues, "requests", "must be >= 1 (nothing to generate)");
  }
  return issues;
}

std::vector<TimedRequest> GeneratePoissonTrace(const PoissonTraceConfig& cfg,
                                               const DatasetSpec& dataset) {
  ThrowOnIssues("PoissonTraceConfig", CheckPoissonTraceConfig(cfg));
  Rng rng(cfg.seed);
  LengthSampler sampler(dataset);
  std::vector<TimedRequest> trace;
  trace.reserve(cfg.requests);
  double t = 0;
  for (std::size_t i = 0; i < cfg.requests; ++i) {
    double u = rng.NextUniform();
    if (u < 1e-300) u = 1e-300;
    t += -std::log(u) / cfg.arrival_rate_rps;  // exponential gap
    trace.push_back({t, sampler.Sample(rng)});
  }
  return trace;
}

ConfigIssues CheckZipfTraceConfig(const ZipfTraceConfig& cfg) {
  ConfigIssues issues;
  if (!(cfg.arrival_rate_rps > 0)) {
    AddIssue(issues, "arrival_rate_rps",
             "must be > 0 (got " + std::to_string(cfg.arrival_rate_rps) + ")");
  }
  if (cfg.requests == 0) {
    AddIssue(issues, "requests", "must be >= 1 (nothing to generate)");
  }
  if (cfg.population == 0) {
    AddIssue(issues, "population", "must be >= 1 (no identities to sample)");
  }
  if (!(cfg.skew >= 0)) {
    AddIssue(issues, "skew",
             "must be >= 0 (0 = uniform popularity), got " +
                 std::to_string(cfg.skew));
  }
  return issues;
}

std::vector<TimedRequest> GenerateZipfTrace(const ZipfTraceConfig& cfg,
                                            const DatasetSpec& dataset) {
  ThrowOnIssues("ZipfTraceConfig", CheckZipfTraceConfig(cfg));
  Rng rng(cfg.seed);

  // Content per identity, fixed up front: rank k gets one dataset-shaped
  // length and a seed-scoped, well-mixed id, so the same id always names
  // the same content and different seeds never alias.
  LengthSampler sampler(dataset);
  std::vector<std::size_t> lengths(cfg.population);
  std::vector<std::uint64_t> ids(cfg.population);
  for (std::size_t k = 0; k < cfg.population; ++k) {
    lengths[k] = sampler.Sample(rng);
    ids[k] = MixHash64(cfg.seed ^ (0x9e3779b97f4a7c15ULL *
                                   (static_cast<std::uint64_t>(k) + 1)));
  }

  // Zipf inverse CDF over ranks: cumulative (k+1)^-skew.  skew = 0 makes
  // every weight 1 -- the uniform degenerate case.
  std::vector<double> cdf(cfg.population);
  double total = 0;
  for (std::size_t k = 0; k < cfg.population; ++k) {
    total += std::pow(static_cast<double>(k + 1), -cfg.skew);
    cdf[k] = total;
  }

  std::vector<TimedRequest> trace;
  trace.reserve(cfg.requests);
  double t = 0;
  for (std::size_t i = 0; i < cfg.requests; ++i) {
    double u = rng.NextUniform();
    if (u < 1e-300) u = 1e-300;
    t += -std::log(u) / cfg.arrival_rate_rps;  // exponential gap
    const double target = rng.NextUniform() * total;
    const std::size_t rank = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), target) - cdf.begin());
    const std::size_t k = std::min(rank, cfg.population - 1);
    trace.push_back({t, lengths[k], ids[k]});
  }
  return trace;
}

ConfigIssues CheckRampTraceConfig(const RampTraceConfig& cfg) {
  ConfigIssues issues;
  if (cfg.stages.empty()) {
    AddIssue(issues, "stages", "must name at least one stage");
  }
  for (std::size_t i = 0; i < cfg.stages.size(); ++i) {
    const std::string prefix = "stages[" + std::to_string(i) + "]";
    if (!(cfg.stages[i].arrival_rate_rps > 0)) {
      AddIssue(issues, prefix + ".arrival_rate_rps",
               "must be > 0 (got " +
                   std::to_string(cfg.stages[i].arrival_rate_rps) + ")");
    }
    if (cfg.stages[i].requests == 0) {
      AddIssue(issues, prefix + ".requests",
               "must be >= 1 (an empty stage has no duration)");
    }
  }
  return issues;
}

std::vector<TimedRequest> GenerateRampTrace(const RampTraceConfig& cfg,
                                            const DatasetSpec& dataset) {
  ThrowOnIssues("RampTraceConfig", CheckRampTraceConfig(cfg));
  Rng rng(cfg.seed);
  LengthSampler sampler(dataset);
  std::size_t total = 0;
  for (const RampStage& stage : cfg.stages) total += stage.requests;
  std::vector<TimedRequest> trace;
  trace.reserve(total);
  double t = 0;
  for (const RampStage& stage : cfg.stages) {
    for (std::size_t i = 0; i < stage.requests; ++i) {
      double u = rng.NextUniform();
      if (u < 1e-300) u = 1e-300;
      t += -std::log(u) / stage.arrival_rate_rps;  // exponential gap
      trace.push_back({t, sampler.Sample(rng)});
    }
  }
  return trace;
}

double TraceDuplicateRate(const std::vector<TimedRequest>& trace) {
  if (trace.empty()) return 0;
  std::unordered_set<std::uint64_t> seen;
  std::size_t repeats = 0;
  for (const TimedRequest& r : trace) {
    if (r.id == kAnonymousId) continue;  // unique content, never a repeat
    if (!seen.insert(r.id).second) ++repeats;
  }
  return static_cast<double>(repeats) / static_cast<double>(trace.size());
}

std::size_t TraceTokens(const std::vector<TimedRequest>& trace) {
  std::size_t tokens = 0;
  for (const auto& r : trace) tokens += r.length;
  return tokens;
}

}  // namespace latte
