#pragma once
// Timestamped request streams: the arrival half of an online serving
// scenario.
//
// The offline reference (serve/batch_former's FormBatches plus
// serve/dispatch's ScheduleFormedBatches) and the serving engine
// consume the same traces, so a scenario can be replayed against both and
// compared number for number.  Arrivals are Poisson (exponential
// inter-arrival gaps) and lengths follow the dataset's truncated
// log-normal fit.

#include <cstdint>
#include <vector>

#include "config/check.hpp"
#include "workload/dataset.hpp"

namespace latte {

/// Identity of a request whose content is unique to it (no other request
/// shares it, so it can never produce a cache hit).
inline constexpr std::uint64_t kAnonymousId = ~0ull;

/// One request of a serving trace: when it arrives, how long it is and --
/// for popularity-skewed workloads -- which content it carries.
struct TimedRequest {
  double arrival_s = 0;     ///< absolute arrival time (seconds)
  std::size_t length = 0;   ///< sequence length (tokens)
  /// Content identity: requests sharing an id are byte-identical inputs
  /// (the engine synthesizes their embeddings from the id, and the result
  /// cache may serve repeats from one execution).  kAnonymousId (the
  /// default, what GeneratePoissonTrace emits) means unique content.
  std::uint64_t id = kAnonymousId;
};

/// Knobs of the Poisson trace generator.
struct PoissonTraceConfig {
  double arrival_rate_rps = 50;  ///< mean arrival rate (requests/s)
  std::size_t requests = 512;    ///< trace size
  std::uint64_t seed = 1;        ///< drives both gaps and lengths
};

/// Names every illegal field (non-positive or NaN rate, zero requests);
/// empty means legal.
ConfigIssues CheckPoissonTraceConfig(const PoissonTraceConfig& cfg);

/// Generates a trace of `cfg.requests` timestamped requests: exponential
/// inter-arrival gaps at `cfg.arrival_rate_rps` and dataset-shaped lengths.
/// Deterministic in the seed; arrivals are strictly ordered in time.
std::vector<TimedRequest> GeneratePoissonTrace(const PoissonTraceConfig& cfg,
                                               const DatasetSpec& dataset);

/// Knobs of the popularity-skewed (Zipfian) trace generator.
struct ZipfTraceConfig {
  double arrival_rate_rps = 50;   ///< mean arrival rate (requests/s)
  std::size_t requests = 512;     ///< trace size
  std::size_t population = 64;    ///< distinct request identities
  /// Zipf exponent: identity rank k is drawn with probability
  /// proportional to (k+1)^-skew.  0 degenerates to uniform; production
  /// content popularity typically fits 0.6-1.2.
  double skew = 1.0;
  std::uint64_t seed = 1;         ///< drives gaps, lengths and identities
};

/// Names every illegal field (non-positive or NaN rate, zero requests,
/// zero population, negative or NaN skew); empty means legal.
ConfigIssues CheckZipfTraceConfig(const ZipfTraceConfig& cfg);

/// Generates a popularity-skewed trace: Poisson arrivals at
/// `cfg.arrival_rate_rps`, identities Zipf(`cfg.skew`)-sampled from a
/// population of `cfg.population`, and one dataset-shaped length per
/// identity (same id always means the same content, hence the same
/// length).  Ids are well-mixed functions of (seed, rank) so two traces
/// with different seeds never alias identities.  Deterministic in the
/// seed; arrivals are strictly ordered in time.
std::vector<TimedRequest> GenerateZipfTrace(const ZipfTraceConfig& cfg,
                                            const DatasetSpec& dataset);

/// One stage of a load ramp: a Poisson segment at a fixed rate.
struct RampStage {
  double arrival_rate_rps = 50;  ///< mean arrival rate within the stage
  std::size_t requests = 128;    ///< requests emitted by the stage
};

/// Knobs of the load-ramp trace generator: consecutive Poisson stages on
/// one continuous timeline (warmup -> overload -> cooldown is the shape
/// the adaptive-serving bench drives).
struct RampTraceConfig {
  std::vector<RampStage> stages;
  std::uint64_t seed = 1;  ///< drives gaps and lengths across all stages
};

/// Names every illegal field (no stages, non-positive or NaN stage rate,
/// empty stage); empty means legal.
ConfigIssues CheckRampTraceConfig(const RampTraceConfig& cfg);

/// Generates the concatenated trace: stage i's exponential gaps at its own
/// rate continue from the previous stage's last arrival, so the timeline
/// is continuous and arrivals are strictly ordered.  One Rng drives the
/// whole trace -- deterministic in the seed, like the other generators.
std::vector<TimedRequest> GenerateRampTrace(const RampTraceConfig& cfg,
                                            const DatasetSpec& dataset);

/// Fraction of requests whose identity already appeared earlier in the
/// trace -- the share a warm result cache could serve without computing.
/// Anonymous requests never repeat.
double TraceDuplicateRate(const std::vector<TimedRequest>& trace);

/// Sum of sequence lengths over a slice of the trace (token accounting for
/// batch formers and admission budgets).
std::size_t TraceTokens(const std::vector<TimedRequest>& trace);

}  // namespace latte
