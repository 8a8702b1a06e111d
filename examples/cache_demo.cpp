// Result-cache demo: popularity-skewed traffic through a cache-enabled
// ServingEngine (hits, coalesced followers, bit-exact outputs), then a
// warm-cache cluster failover in shared vs per-replica mode.
//
//   ./example_cache_demo

#include <cstdio>
#include <map>

#include "latte/latte.hpp"

using namespace latte;

namespace {

void PrintCacheLine(const char* label, const CacheStats& cs,
                    const ServingReport& report) {
  std::printf("  %-22s hits %3zu  coalesced %2zu  misses %3zu  "
              "hit-rate %4.0f%%  p99 %6.2f ms  %6.1f req/s\n",
              label, cs.hits, cs.coalesced, cs.misses, CacheHitRate(cs) * 100,
              report.p99_latency_s * 1e3, report.throughput_rps);
}

}  // namespace

int main() {
  const ModelInstance model(ScaledDown(BertBase(), 6), 2022);

  // A popularity-skewed stream: 64 requests over 10 identities -- the
  // regime where most traffic repeats content someone already asked for.
  ZipfTraceConfig trace_cfg;
  trace_cfg.arrival_rate_rps = 250;
  trace_cfg.requests = 64;
  trace_cfg.population = 10;
  trace_cfg.skew = 1.0;
  trace_cfg.seed = 42;
  const auto trace = GenerateZipfTrace(trace_cfg, Mrpc());
  std::printf("Zipf trace: %zu requests, %zu identities, %.0f%% duplicates\n\n",
              trace.size(), trace_cfg.population,
              TraceDuplicateRate(trace) * 100);

  // --- One engine, cached vs uncached, real execution ------------------
  ServingEngineConfig cfg;
  cfg.former.max_batch = 4;
  cfg.former.timeout_s = 0.02;
  cfg.inference.mode = InferenceMode::kSparseInt8;
  cfg.inference.sparse.top_k = 16;
  ServiceModelSpec padded;  // 10 us per padded token + 1 ms per batch
  padded.base = ServiceModelSpec::Base::kPadded;
  padded.seconds_per_token = 10e-6;
  padded.batch_overhead_s = 1e-3;
  cfg.service = BuildServiceModel(padded);

  ServingEngine uncached(model, cfg);
  const auto plain = uncached.Replay(trace);

  cfg.cache.enabled = true;
  cfg.cache.key_policy = CacheKeyPolicy::kRequestId;
  cfg.cache.eviction = EvictionPolicy::kSegmentedLru;
  ServingEngine cached(model, cfg);
  const auto result = cached.Replay(trace);

  std::printf("engine (functional execution):\n");
  PrintCacheLine("uncached", plain.cache, plain.report());
  PrintCacheLine("cached (SLRU)", result.cache, result.report());
  std::printf("  executed %zu batches instead of %zu (%zu admitted vs %zu)\n",
              result.report().batches, plain.report().batches,
              result.offered_ids.size(), plain.offered_ids.size());

  // Bit-exactness: every hit and follower carries the identical tensor the
  // uncached engine computed for that identity.
  std::map<std::uint64_t, const MatrixF*> reference;
  for (std::size_t i = 0; i < plain.offered_ids.size(); ++i) {
    reference.emplace(trace[plain.offered_ids[i]].id, &plain.outputs[i]);
  }
  std::size_t checked = 0;
  bool exact = true;
  for (const CacheServedRequest& served : result.cache_served) {
    exact =
        exact && served.output == *reference.at(trace[served.offered_id].id);
    ++checked;
  }
  std::printf("  %zu cache-served outputs bit-exact vs uncached run: %s\n\n",
              checked, exact ? "yes" : "NO");

  // --- Warm-cache failover: shared vs per-replica store ----------------
  auto cluster_cfg = [&](ClusterCacheMode mode) {
    ClusterConfig c;
    for (int i = 0; i < 3; ++i) {
      ReplicaConfig rep;
      rep.engine = cfg;
      rep.engine.cache = ResultCacheConfig{};  // cluster manages the cache
      rep.engine.execute = false;              // accounting-only sweep
      c.replicas.push_back(rep);
    }
    c.router.policy = RouterPolicy::kKeyAffinity;
    c.cache.mode = mode;
    return c;
  };
  std::printf("cluster failover with a warm cache (replica 0 offline):\n");
  for (ClusterCacheMode mode :
       {ClusterCacheMode::kShared, ClusterCacheMode::kPerReplica}) {
    ServingCluster cluster(model, cluster_cfg(mode));
    cluster.Replay(trace);  // warm
    cluster.SetOnline(0, false);
    const auto after = cluster.Replay(trace);
    std::printf("  %-12s stream 2: hits %2zu / %zu  (misses recomputed: %zu)\n",
                ClusterCacheModeName(mode), after.report.cache.hits,
                trace.size(), after.report.cache.misses);
  }
  std::printf("\nshared mode keeps the fleet's entries through the failover; "
              "per-replica mode\ncleanly invalidates the lost replica's and "
              "recomputes its keys elsewhere.\n");
  return exact ? 0 : 1;
}
