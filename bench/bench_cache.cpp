// Result-cache benchmark: sweeps popularity skew x identity population x
// eviction policy over the cache-enabled ServingEngine and emits
// machine-readable JSON (BENCH_cache.json, or argv[1]) for the CI
// perf-gate job.
//
// Every cell replays one Zipf trace (per population x skew, so cached and
// uncached runs see byte-identical arrivals) through accounting-only
// engines -- no tensors, pure virtual time -- against a padded backend
// near saturation, where removing duplicate work is worth real latency.
// Hit/miss/coalesce/eviction counts are deterministic and gated exactly
// by bench/check_regression.py; the headline the gate watches: in every
// cell whose trace carries a >= 20% duplicate rate, the cached engine
// must beat the uncached one on BOTH p99 latency and throughput.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/json_writer.hpp"

namespace latte {
namespace {

constexpr double kDuplicateRateGate = 0.2;

ServingEngineConfig MakeEngine(bool cached, EvictionPolicy eviction) {
  ServingEngineConfig cfg;
  cfg.former.max_batch = 8;
  cfg.former.timeout_s = 0.05;
  cfg.workers = 1;
  cfg.execute = false;  // virtual-time sweep
  cfg.service = bench::PaddedBackend();
  cfg.cache.enabled = cached;
  cfg.cache.key_policy = CacheKeyPolicy::kRequestId;
  cfg.cache.eviction = eviction;
  // Tight enough that the large-population cells churn (the eviction
  // policies differ), roomy enough that the hot set of a skewed trace
  // fits: ~45 SQuAD-shaped entries at hidden = 128.
  cfg.cache.capacity_bytes = 4ull << 20;
  return cfg;
}

struct Cell {
  std::size_t population = 0;
  double skew = 0;
  EvictionPolicy eviction = EvictionPolicy::kLru;
  double duplicate_rate = 0;
  ServingResult cached;
  ServingResult uncached;  ///< same trace through a cache-less engine
  double p99_ratio = 0;
  double throughput_gain = 0;
  bool wins = false;
};

}  // namespace
}  // namespace latte

int main(int argc, char** argv) {
  using namespace latte;
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_cache.json";

  const auto dataset = Squad();
  // Accounting-only mode never touches the tensors; the model supplies
  // shapes (hidden width prices the byte-accounted entries).
  const ModelInstance model(ScaledDown(BertBase(), 6), 2022);

  const std::size_t requests = 256;
  const double rate = 300;  // near the padded backend's saturation
  const std::vector<std::size_t> populations = {16, 64, 1024};
  const std::vector<double> skews = {0.0, 1.1};
  const std::vector<EvictionPolicy> policies = {EvictionPolicy::kLru,
                                                EvictionPolicy::kSegmentedLru};

  std::vector<Cell> cells;
  bool headline = true;
  bool any_gated_cell = false;
  for (std::size_t population : populations) {
    for (double skew : skews) {
      ZipfTraceConfig trace_cfg;
      trace_cfg.arrival_rate_rps = rate;
      trace_cfg.requests = requests;
      trace_cfg.population = population;
      trace_cfg.skew = skew;
      trace_cfg.seed = 7;
      const auto trace = GenerateZipfTrace(trace_cfg, dataset);
      const double dup_rate = TraceDuplicateRate(trace);

      ServingEngine uncached_engine(
          model, MakeEngine(/*cached=*/false, EvictionPolicy::kLru));
      ServingResult uncached = uncached_engine.Replay(trace);

      for (EvictionPolicy eviction : policies) {
        ServingEngine engine(model, MakeEngine(/*cached=*/true, eviction));
        Cell cell;
        cell.population = population;
        cell.skew = skew;
        cell.eviction = eviction;
        cell.duplicate_rate = dup_rate;
        cell.cached = engine.Replay(trace);
        cell.uncached = uncached;
        cell.p99_ratio = cell.cached.report().p99_latency_s /
                         uncached.report().p99_latency_s;
        cell.throughput_gain = cell.cached.report().throughput_rps /
                               uncached.report().throughput_rps;
        // A win needs margin so libm-level float drift between hosts
        // cannot flip the gated summary bit.
        cell.wins = cell.p99_ratio <= 0.99 && cell.throughput_gain >= 1.01;
        if (dup_rate >= kDuplicateRateGate) {
          any_gated_cell = true;
          headline = headline && cell.wins;
        }
        cells.push_back(std::move(cell));
      }
    }
  }
  headline = headline && any_gated_cell;

  obs::JsonWriter json;
  json.BeginObject();
  json.Key("bench").Value("cache");
  json.Key("schema_version").Value(std::size_t{1});
  StampHost(json);
  json.Key("dataset").Value(dataset.name);
  json.Key("requests").Value(requests);
  json.Key("arrival_rps").Value(rate);
  json.Key("service_model").Value("padded");
  json.Key("key_policy").Value("request-id");
  json.Key("duplicate_rate_gate").Value(kDuplicateRateGate);
  json.Key("results");
  json.BeginArray();

  TextTable table({"population", "skew", "dup rate", "eviction", "hits",
                   "coalesced", "misses", "evicted", "p99 ratio",
                   "throughput gain", "win"});
  for (const Cell& cell : cells) {
    const CacheStats& cs = cell.cached.cache;
    json.BeginObject();
    json.Key("population").Value(cell.population);
    json.Key("skew").Value(cell.skew);
    json.Key("eviction").Value(EvictionPolicyName(cell.eviction));
    json.Key("duplicate_rate").Value(cell.duplicate_rate);
    json.Key("requests").Value(cell.cached.report().requests);
    json.Key("batches").Value(cell.cached.report().batches);
    json.Key("hits").Value(cs.hits);
    json.Key("coalesced").Value(cs.coalesced);
    json.Key("misses").Value(cs.misses);
    json.Key("evictions").Value(cs.store.evictions);
    json.Key("insertions").Value(cs.store.insertions);
    json.Key("hit_rate").Value(CacheHitRate(cs));
    json.Key("peak_bytes").Value(cs.store.peak_bytes);
    json.Key("cached_p50_ms").Value(cell.cached.report().p50_latency_s * 1e3);
    json.Key("cached_p99_ms").Value(cell.cached.report().p99_latency_s * 1e3);
    json.Key("cached_throughput_rps")
        .Value(cell.cached.report().throughput_rps);
    json.Key("uncached_p99_ms")
        .Value(cell.uncached.report().p99_latency_s * 1e3);
    json.Key("uncached_throughput_rps")
        .Value(cell.uncached.report().throughput_rps);
    json.Key("p99_ratio").Value(cell.p99_ratio);
    json.Key("throughput_gain").Value(cell.throughput_gain);
    json.Key("gated").Value(cell.duplicate_rate >= kDuplicateRateGate);
    json.Key("wins").Value(cell.wins);
    json.EndObject();

    table.AddRow({std::to_string(cell.population), Fmt(cell.skew, 1),
                  Fmt(cell.duplicate_rate, 2),
                  EvictionPolicyName(cell.eviction), std::to_string(cs.hits),
                  std::to_string(cs.coalesced), std::to_string(cs.misses),
                  std::to_string(cs.store.evictions), Fmt(cell.p99_ratio, 2),
                  Fmt(cell.throughput_gain, 2), cell.wins ? "yes" : "no"});
  }
  json.EndArray();
  json.Key("cache_beats_uncached_at_dup_gate").Value(headline);
  json.EndObject();

  std::printf(
      "== Result-cache sweep: population x skew x eviction policy "
      "(%zu requests @ %.0f req/s, cached vs uncached) ==\n\n",
      requests, rate);
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "headline: cached beats uncached on p99 AND throughput in every "
      "cell with >= %.0f%% duplicate rate: %s\n",
      kDuplicateRateGate * 100, headline ? "yes" : "NO");
  // Write the JSON before any failure exit: when the headline regresses,
  // CI still gets the per-cell numbers as an artifact to debug with.
  if (!json.WriteFile(out_path)) return 1;
  std::printf("wrote %s\n", out_path.c_str());
  if (!headline) {
    std::fprintf(stderr,
                 "error: the result cache failed to beat the uncached "
                 "engine in some >=20%%-duplicate cell; the cache (or this "
                 "sweep) regressed\n");
    return 1;
  }
  return 0;
}
