// Tests for the request-level result cache and in-flight coalescing
// layer: key policies, LRU/SLRU eviction determinism under interleaved
// TTL expiry and capacity pressure, the coalescing table, the cache-
// enabled ServingEngine (hits bypass admission, outputs bit-exact vs an
// uncached engine executing the deduplicated set, accounting-only
// replays byte-identical at any thread count) and the cluster's shared
// vs per-replica cache modes with key-affinity routing and warm-cache
// failover.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "latte/latte.hpp"

namespace latte {
namespace {

/// A token-linear service model: overhead + spt * sum(len).
BatchServiceModel TokenLinear(double seconds_per_token,
                              double batch_overhead_s) {
  ServiceModelSpec spec;
  spec.seconds_per_token = seconds_per_token;
  spec.batch_overhead_s = batch_overhead_s;
  return BuildServiceModel(spec);
}

ModelInstance& SmallModel() {
  static ModelInstance model(ScaledDown(BertBase(), 6), 2022);
  return model;
}

ServingEngineConfig CachedEngineConfig() {
  ServingEngineConfig cfg;
  cfg.former.max_batch = 4;
  cfg.former.timeout_s = 0.02;
  cfg.workers = 1;
  cfg.threads = 1;
  cfg.inference.mode = InferenceMode::kSparseInt8;
  cfg.inference.sparse.top_k = 16;
  cfg.cache.enabled = true;
  cfg.cache.key_policy = CacheKeyPolicy::kRequestId;
  return cfg;
}

std::vector<TimedRequest> SkewedTrace(std::size_t requests = 48,
                                      double rate = 300,
                                      std::uint64_t seed = 21,
                                      std::size_t population = 8,
                                      double skew = 1.1) {
  ZipfTraceConfig cfg;
  cfg.arrival_rate_rps = rate;
  cfg.requests = requests;
  cfg.population = population;
  cfg.skew = skew;
  cfg.seed = seed;
  return GenerateZipfTrace(cfg, Mrpc());
}

// Deduplicated view of a trace: the first occurrence of every identity,
// at its original arrival instant -- what a cache-enabled engine actually
// executes.
std::vector<TimedRequest> Deduplicated(const std::vector<TimedRequest>& trace) {
  std::vector<TimedRequest> unique;
  std::map<std::uint64_t, bool> seen;
  for (const TimedRequest& r : trace) {
    if (r.id != kAnonymousId && seen[r.id]) continue;
    seen[r.id] = true;
    unique.push_back(r);
  }
  return unique;
}

bool SameReport(const ServingReport& a, const ServingReport& b) {
  return a.requests == b.requests && a.batches == b.batches &&
         a.mean_batch_size == b.mean_batch_size &&
         a.mean_latency_s == b.mean_latency_s &&
         a.p50_latency_s == b.p50_latency_s &&
         a.p95_latency_s == b.p95_latency_s &&
         a.p99_latency_s == b.p99_latency_s &&
         a.throughput_rps == b.throughput_rps &&
         a.device_busy_frac == b.device_busy_frac;
}

bool SameCacheStats(const CacheStats& a, const CacheStats& b) {
  return a.lookups == b.lookups && a.hits == b.hits &&
         a.coalesced == b.coalesced && a.misses == b.misses &&
         a.bypassed == b.bypassed &&
         a.store.insertions == b.store.insertions &&
         a.store.refreshes == b.store.refreshes &&
         a.store.evictions == b.store.evictions &&
         a.store.expirations == b.store.expirations &&
         a.store.entries == b.store.entries &&
         a.store.bytes_used == b.store.bytes_used &&
         a.store.peak_bytes == b.store.peak_bytes;
}

// ----------------------------------------------------------------- Keys --

TEST(CacheKeyTest, RequestIdKeyIsStableAndLengthScoped) {
  EXPECT_EQ(RequestIdKey(7, 32), RequestIdKey(7, 32));
  EXPECT_NE(RequestIdKey(7, 32), RequestIdKey(7, 33));
  EXPECT_NE(RequestIdKey(7, 32), RequestIdKey(8, 32));
  EXPECT_NE(RequestIdKey(7, 32), kNullCacheKey);
}

TEST(CacheKeyTest, EmbeddingKeyIsContentAddressed) {
  Rng rng(3);
  MatrixF a = rng.NormalMatrix(4, 8, 0, 1);
  MatrixF b = a;
  EXPECT_EQ(EmbeddingKey(a, 4), EmbeddingKey(b, 4));
  b(2, 3) += 1e-6f;  // any byte change changes the key
  EXPECT_NE(EmbeddingKey(a, 4), EmbeddingKey(b, 4));
  EXPECT_NE(EmbeddingKey(a, 4), kNullCacheKey);
}

TEST(CacheKeyTest, PolicyNames) {
  EXPECT_STREQ(CacheKeyPolicyName(CacheKeyPolicy::kRequestId), "request-id");
  EXPECT_STREQ(CacheKeyPolicyName(CacheKeyPolicy::kEmbeddingHash),
               "embedding-hash");
  EXPECT_STREQ(EvictionPolicyName(EvictionPolicy::kLru), "lru");
  EXPECT_STREQ(EvictionPolicyName(EvictionPolicy::kSegmentedLru),
               "segmented-lru");
}

// ---------------------------------------------------------------- Store --

ResultCacheConfig StoreCfg(std::size_t capacity_bytes, double ttl_s = 0,
                           EvictionPolicy eviction = EvictionPolicy::kLru) {
  ResultCacheConfig cfg;
  cfg.enabled = true;
  cfg.capacity_bytes = capacity_bytes;
  cfg.ttl_s = ttl_s;
  cfg.eviction = eviction;
  cfg.entry_overhead_bytes = 0;  // byte math in tests stays exact
  return cfg;
}

TEST(ResultCacheTest, LruEvictsLeastRecentlyUsed) {
  ResultCache cache(StoreCfg(300));
  cache.Insert(1, 100, 0.0, 0, nullptr);
  cache.Insert(2, 100, 1.0, 1, nullptr);
  cache.Insert(3, 100, 2.0, 2, nullptr);
  EXPECT_EQ(cache.bytes_used(), 300u);
  ASSERT_NE(cache.Lookup(1, 3.0), nullptr);  // 1 becomes MRU
  cache.Insert(4, 100, 4.0, 3, nullptr);     // evicts 2, the LRU
  EXPECT_FALSE(cache.Contains(2, 4.0));
  EXPECT_TRUE(cache.Contains(1, 4.0));
  EXPECT_TRUE(cache.Contains(3, 4.0));
  EXPECT_TRUE(cache.Contains(4, 4.0));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().peak_bytes, 300u);
}

TEST(ResultCacheTest, SegmentedLruResistsScans) {
  // A hot entry with proven reuse must survive a scan of one-shot keys
  // that would flush it under plain LRU.
  ResultCacheConfig lru_cfg = StoreCfg(300);
  ResultCacheConfig slru_cfg = StoreCfg(300, 0, EvictionPolicy::kSegmentedLru);
  slru_cfg.protected_fraction = 0.5;
  ResultCache lru(lru_cfg);
  ResultCache slru(slru_cfg);
  for (ResultCache* cache : {&lru, &slru}) {
    cache->Insert(99, 100, 0.0, 0, nullptr);
    ASSERT_NE(cache->Lookup(99, 0.5), nullptr);  // reuse -> SLRU promotes
    for (CacheKey k = 1; k <= 6; ++k) {
      cache->Insert(k, 100, 1.0 + static_cast<double>(k), 0, nullptr);
    }
  }
  EXPECT_FALSE(lru.Contains(99, 10.0));  // scan flushed the hot entry
  EXPECT_TRUE(slru.Contains(99, 10.0));  // protected segment kept it
}

TEST(ResultCacheTest, TtlExpiresInVirtualTime) {
  ResultCache cache(StoreCfg(0, /*ttl_s=*/1.0));
  cache.Insert(1, 100, 0.0, 0, nullptr);
  EXPECT_TRUE(cache.Contains(1, 0.9));
  EXPECT_NE(cache.Lookup(1, 0.9), nullptr);
  EXPECT_FALSE(cache.Contains(1, 1.0));         // age >= ttl is stale
  EXPECT_EQ(cache.Lookup(1, 1.0), nullptr);     // lookup removes it
  EXPECT_EQ(cache.stats().expirations, 1u);
  EXPECT_EQ(cache.entries(), 0u);

  // A hit does not refresh the TTL; a re-insert does.
  cache.Insert(2, 100, 2.0, 0, nullptr);
  ASSERT_NE(cache.Lookup(2, 2.9), nullptr);
  EXPECT_FALSE(cache.Contains(2, 3.1));  // anchored at insert, not the hit
  cache.Insert(3, 100, 4.0, 0, nullptr);
  cache.Insert(3, 100, 4.8, 0, nullptr);  // refresh re-anchors
  EXPECT_EQ(cache.stats().refreshes, 1u);
  EXPECT_TRUE(cache.Contains(3, 5.5));
  EXPECT_FALSE(cache.Contains(3, 5.9));
}

TEST(ResultCacheTest, InterleavedTtlAndCapacityPressureIsDeterministic) {
  // Two identical op sequences over a small store with both TTL and
  // capacity active must agree on every count and on the surviving set.
  auto run = [] {
    ResultCache cache(StoreCfg(400, /*ttl_s=*/2.0));
    // Burst phase: six distinct keys through a four-entry budget -- the
    // two oldest are evicted by capacity, well before any TTL.
    for (CacheKey k = 1; k <= 6; ++k) {
      cache.Insert(k, 100, 0.1 * static_cast<double>(k), 0, nullptr);
    }
    cache.Lookup(4, 0.7);  // recency order is no longer insertion order
    cache.Insert(7, 100, 0.8, 0, nullptr);  // capacity evicts the LRU (3)
    // Quiet phase: virtual time passes the TTL.  The survivors expire --
    // one on its own lookup, the rest in the sweep ahead of an insert.
    cache.Lookup(5, 2.65);
    cache.Insert(8, 100, 2.9, 0, nullptr);
    cache.Insert(9, 100, 3.0, 0, nullptr);
    return cache;
  };
  ResultCache a = run();
  ResultCache b = run();
  EXPECT_EQ(a.stats().insertions, b.stats().insertions);
  EXPECT_EQ(a.stats().evictions, b.stats().evictions);
  EXPECT_EQ(a.stats().expirations, b.stats().expirations);
  EXPECT_EQ(a.entries(), b.entries());
  EXPECT_EQ(a.bytes_used(), b.bytes_used());
  for (CacheKey k = 1; k <= 9; ++k) {
    EXPECT_EQ(a.Contains(k, 3.0), b.Contains(k, 3.0)) << "key " << k;
  }
  // And the exact interleaved outcome: keys 1, 2 evicted in the burst,
  // key 3 evicted for key 7, keys 4-7 expired in the quiet phase.
  EXPECT_EQ(a.stats().evictions, 3u);
  EXPECT_EQ(a.stats().expirations, 4u);
  EXPECT_EQ(a.entries(), 2u);  // 8 and 9 survive
  EXPECT_TRUE(a.Contains(8, 3.0));
  EXPECT_TRUE(a.Contains(9, 3.0));
  EXPECT_EQ(a.bytes_used(), 200u);
}

TEST(ResultCacheTest, OversizedEntryIsRejectedNotWedged) {
  ResultCache cache(StoreCfg(150));
  cache.Insert(1, 100, 0.0, 0, nullptr);
  cache.Insert(2, 200, 1.0, 0, nullptr);  // can never fit
  EXPECT_FALSE(cache.Contains(2, 1.0));
  EXPECT_TRUE(cache.Contains(1, 1.0));  // and evicted nothing for it
  EXPECT_EQ(cache.stats().rejected_too_large, 1u);
}

TEST(ResultCacheTest, ClearInvalidatesEverything) {
  ResultCache cache(StoreCfg(0));
  cache.Insert(1, 10, 0.0, 0, nullptr);
  cache.Insert(2, 10, 0.0, 0, nullptr);
  cache.Clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes_used(), 0u);
  EXPECT_EQ(cache.stats().invalidations, 2u);
  EXPECT_FALSE(cache.Contains(1, 0.0));
}

TEST(ResultCacheTest, ValidationNamesTheField) {
  ResultCacheConfig cfg = StoreCfg(0);
  cfg.ttl_s = -1;
  EXPECT_THROW(ResultCache{cfg}, std::invalid_argument);
  cfg = StoreCfg(0);
  cfg.hit_latency_s = -1e-6;
  EXPECT_THROW(ResultCache{cfg}, std::invalid_argument);
  cfg = StoreCfg(0, 0, EvictionPolicy::kSegmentedLru);
  cfg.protected_fraction = 0;
  EXPECT_THROW(ResultCache{cfg}, std::invalid_argument);
}

// ------------------------------------------------------------- Coalesce --

TEST(InFlightTableTest, AttachOnlyWhilePending) {
  InFlightTable table;
  EXPECT_FALSE(table.Attach(5, 0, 0.0, 10));  // no leader yet
  table.Lead(5);
  EXPECT_TRUE(table.Attach(5, 1, 0.1, 10));
  EXPECT_TRUE(table.Attach(5, 2, 0.2, 10));
  const auto followers = table.Complete(5);
  ASSERT_EQ(followers.size(), 2u);
  EXPECT_EQ(followers[0].offered_id, 1u);
  EXPECT_EQ(followers[1].offered_id, 2u);
  EXPECT_FALSE(table.Attach(5, 3, 0.3, 10));  // completed: no longer pending
  EXPECT_THROW(table.Complete(5), std::logic_error);
  table.Lead(5);  // a new leader may form after completion
  EXPECT_THROW(table.Lead(5), std::logic_error);
}

// --------------------------------------------------- Engine (functional) --

TEST(CachedEngineTest, HitsAndCoalescedFollowersAreCountedDisjointly) {
  const auto trace = SkewedTrace();
  ServingEngine engine(SmallModel(), CachedEngineConfig());
  const auto result = engine.Replay(trace);
  const CacheStats& cs = result.cache;
  EXPECT_EQ(cs.lookups, trace.size());
  EXPECT_EQ(cs.hits + cs.coalesced + cs.misses, cs.lookups);
  EXPECT_GT(cs.hits + cs.coalesced, 0u);  // 8 identities over 48 requests
  EXPECT_GT(cs.misses, 0u);
  EXPECT_EQ(cs.bypassed, 0u);
  // Every offered request was served: admitted + cache-served = offered.
  EXPECT_EQ(result.offered_ids.size() + result.cache_served.size(),
            trace.size());
  EXPECT_EQ(result.cache_served.size(), cs.hits + cs.coalesced);
  // The pooled report covers all of them.
  EXPECT_EQ(result.report().requests, trace.size());
}

TEST(CachedEngineTest, OutputsBitExactVsUncachedDeduplicatedRun) {
  const auto trace = SkewedTrace();
  const auto dedup = Deduplicated(trace);
  ASSERT_LT(dedup.size(), trace.size());

  ServingEngine cached(SmallModel(), CachedEngineConfig());
  const auto cached_result = cached.Replay(trace);

  ServingEngineConfig uncached_cfg = CachedEngineConfig();
  uncached_cfg.cache.enabled = false;
  ServingEngine uncached(SmallModel(), uncached_cfg);
  const auto uncached_result = uncached.Replay(dedup);

  // The cached engine executed exactly the deduplicated set.
  EXPECT_EQ(cached_result.offered_ids.size(), dedup.size());

  // Output per identity from the uncached run of the unique set.
  std::map<std::uint64_t, const MatrixF*> expected;
  for (std::size_t i = 0; i < dedup.size(); ++i) {
    expected[dedup[i].id] = &uncached_result.outputs[i];
  }

  // Every request -- leader, hit or follower -- must carry the identical
  // tensor for its identity.
  std::vector<const MatrixF*> served(trace.size(), nullptr);
  for (std::size_t i = 0; i < cached_result.offered_ids.size(); ++i) {
    served[cached_result.offered_ids[i]] = &cached_result.outputs[i];
  }
  for (const CacheServedRequest& s : cached_result.cache_served) {
    served[s.offered_id] = &s.output;
  }
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ASSERT_NE(served[i], nullptr) << "request " << i << " was never served";
    EXPECT_EQ(*served[i], *expected.at(trace[i].id)) << "request " << i;
  }
}

TEST(CachedEngineTest, HitsBypassBoundedQueueAdmission) {
  // Make a tiny waiting room and warm the cache; repeats must be served
  // even while the queue is full, and never counted rejected.
  ServingEngineConfig cfg = CachedEngineConfig();
  cfg.execute = false;
  cfg.queue_capacity = 1;
  cfg.former.max_batch = 64;      // nothing seals by capacity
  cfg.former.timeout_s = 0.05;
  cfg.service = TokenLinear(1e-3, 1e-2);  // slow backend
  ServingEngine engine(SmallModel(), cfg);

  // Stream 1 computes identity 1 once.
  engine.Push({0.0, 16, /*id=*/1});
  engine.Drain();

  // Stream 2: fill the queue with a unique request, then offer repeats of
  // the cached identity plus a unique straggler.
  EXPECT_TRUE(engine.Push({0.0, 16, 2}));   // occupies the only queue slot
  EXPECT_TRUE(engine.Push({0.001, 16, 1}));  // hit: bypasses the full queue
  EXPECT_TRUE(engine.Push({0.002, 16, 1}));  // hit again
  EXPECT_FALSE(engine.Push({0.003, 16, 3}));  // miss: queue still full
  const auto result = engine.Drain();
  EXPECT_EQ(result.cache.hits, 2u);
  EXPECT_EQ(result.admission.rejected, 1u);
  EXPECT_EQ(result.admission.accepted, 1u);
}

TEST(CachedEngineTest, CoalescedFollowersCompleteWithTheirLeader) {
  // Two identical requests in the same forming window: one execution,
  // both complete at the leader's batch completion.
  ServingEngineConfig cfg = CachedEngineConfig();
  cfg.execute = false;
  cfg.former.max_batch = 8;
  cfg.former.timeout_s = 0.01;
  cfg.service = TokenLinear(1e-4, 1e-3);
  ServingEngine engine(SmallModel(), cfg);
  engine.Push({0.000, 16, 9});
  engine.Push({0.002, 16, 9});  // identical, leader still in flight
  engine.Push({0.004, 24, 10});
  const auto result = engine.Replay({});  // drain via empty replay
  EXPECT_EQ(result.cache.coalesced, 1u);
  EXPECT_EQ(result.cache.misses, 2u);
  ASSERT_EQ(result.cache_served.size(), 1u);
  const CacheServedRequest& follower = result.cache_served.front();
  EXPECT_TRUE(follower.coalesced);
  EXPECT_EQ(follower.offered_id, 1u);
  // The follower's completion is its leader's batch completion, so its
  // latency still includes the leader's queueing + service time.
  const double batch_done = result.schedule.done_s.front();
  EXPECT_DOUBLE_EQ(follower.done_s, batch_done);
  EXPECT_GT(follower.done_s - follower.arrival_s, 0.0);
}

TEST(CachedEngineTest, CachePersistsAcrossStreamsWithContinuingClock) {
  ServingEngineConfig cfg = CachedEngineConfig();
  cfg.execute = false;
  cfg.cache.ttl_s = 0;  // no expiry: the second stream must hit
  ServingEngine engine(SmallModel(), cfg);
  engine.Push({0.0, 16, 5});
  engine.Drain();
  EXPECT_GT(engine.cache_epoch(), 0.0);
  engine.Push({0.0, 16, 5});
  const auto second = engine.Drain();
  EXPECT_EQ(second.cache.hits, 1u);
  EXPECT_EQ(second.cache.misses, 0u);
}

TEST(CachedEngineTest, TtlExpiresAcrossStreams) {
  ServingEngineConfig cfg = CachedEngineConfig();
  cfg.execute = false;
  cfg.cache.ttl_s = 1e-3;  // far shorter than a stream span
  ServingEngine engine(SmallModel(), cfg);
  engine.Push({0.0, 16, 5});
  engine.Push({1.0, 16, 6});  // stretches the stream span past the TTL
  engine.Drain();
  engine.Push({0.0, 16, 5});  // one epoch later: stale
  const auto second = engine.Drain();
  EXPECT_EQ(second.cache.hits, 0u);
  EXPECT_EQ(second.cache.misses, 1u);
  EXPECT_GT(second.cache.store.expirations, 0u);
}

TEST(CachedEngineTest, AccountingOnlyReplayIsThreadCountInvariant) {
  const auto trace = SkewedTrace(96, 400, 31, 12, 1.0);
  auto run = [&trace](std::size_t threads) {
    ServingEngineConfig cfg = CachedEngineConfig();
    cfg.execute = false;
    cfg.threads = threads;
    cfg.cache.capacity_bytes = 48 << 10;  // keep eviction in play
    cfg.cache.ttl_s = 0.5;
    ServingEngine engine(SmallModel(), cfg);
    return engine.Replay(trace);
  };
  const auto a = run(1);
  const auto b = run(4);
  EXPECT_TRUE(SameReport(a.report(), b.report()));
  EXPECT_TRUE(SameCacheStats(a.cache, b.cache));
  ASSERT_EQ(a.batches.size(), b.batches.size());
  for (std::size_t i = 0; i < a.batches.size(); ++i) {
    EXPECT_EQ(a.batches[i].indices, b.batches[i].indices);
  }
  ASSERT_EQ(a.cache_served.size(), b.cache_served.size());
  for (std::size_t i = 0; i < a.cache_served.size(); ++i) {
    EXPECT_EQ(a.cache_served[i].offered_id, b.cache_served[i].offered_id);
    EXPECT_EQ(a.cache_served[i].done_s, b.cache_served[i].done_s);
    EXPECT_EQ(a.cache_served[i].coalesced, b.cache_served[i].coalesced);
  }
}

TEST(CachedEngineTest, EmbeddingHashPolicyServesCallerTensors) {
  // Content-addressed hits for caller-provided embeddings, without ids.
  ServingEngineConfig cfg = CachedEngineConfig();
  cfg.cache.key_policy = CacheKeyPolicy::kEmbeddingHash;
  cfg.former.timeout_s = 1e-4;  // tiny window: no coalescing, real repeats
  ServingEngine engine(SmallModel(), cfg);
  const std::size_t hidden = SmallModel().config().encoder.hidden;
  Rng rng(17);
  MatrixF content = rng.NormalMatrix(12, hidden, 0, 1);
  engine.Push({0.00, 12}, content);
  engine.Push({0.05, 12}, content);  // same bytes: must hit
  MatrixF other = rng.NormalMatrix(12, hidden, 0, 1);
  engine.Push({0.10, 12}, other);    // different bytes: miss
  const auto result = engine.Drain();
  EXPECT_EQ(result.cache.hits, 1u);
  EXPECT_EQ(result.cache.misses, 2u);
  ASSERT_EQ(result.cache_served.size(), 1u);
  // The hit's tensor is the leader's output, bit-exact.
  ASSERT_EQ(result.outputs.size(), 2u);
  EXPECT_EQ(result.cache_served.front().output, result.outputs.front());
}

TEST(CachedEngineTest, AnonymousRequestsBypassWithRequestIdPolicy) {
  PoissonTraceConfig trace_cfg;
  trace_cfg.requests = 16;
  trace_cfg.arrival_rate_rps = 200;
  const auto trace = GeneratePoissonTrace(trace_cfg, Mrpc());
  ServingEngineConfig cfg = CachedEngineConfig();
  cfg.execute = false;
  ServingEngine engine(SmallModel(), cfg);
  const auto result = engine.Replay(trace);
  EXPECT_EQ(result.cache.bypassed, trace.size());
  EXPECT_EQ(result.cache.lookups, 0u);
  EXPECT_EQ(result.offered_ids.size(), trace.size());
}

TEST(CachedEngineTest, CacheDisabledMatchesLegacyBehavior) {
  // A cache-off engine on an id-free trace must produce the exact legacy
  // report (the PR-2/3 serving baselines depend on it).
  PoissonTraceConfig trace_cfg;
  trace_cfg.requests = 32;
  trace_cfg.arrival_rate_rps = 150;
  const auto trace = GeneratePoissonTrace(trace_cfg, Mrpc());
  ServingEngineConfig cfg = CachedEngineConfig();
  cfg.execute = false;
  cfg.cache.enabled = false;
  ServingEngine off(SmallModel(), cfg);
  const auto off_result = off.Replay(trace);
  EXPECT_TRUE(off_result.cache_served.empty());
  EXPECT_EQ(off_result.cache.lookups + off_result.cache.bypassed, 0u);
  EXPECT_EQ(off_result.report().requests, trace.size());
}

// ---------------------------------------------------------------- Router --

TEST(KeyAffinityRouterTest, RepeatsRankTheSameReplicaFirst) {
  RouterConfig cfg;
  cfg.policy = RouterPolicy::kKeyAffinity;
  Router router(cfg, 4);
  std::vector<ReplicaSnapshot> fleet(4);
  const TimedRequest repeat{0.0, 32, /*id=*/42};
  const auto first = router.Rank(repeat, fleet);
  const auto again = router.Rank(repeat, fleet);
  ASSERT_EQ(first.size(), 4u);
  EXPECT_EQ(first, again);  // no cursor drift for keyed requests
  const TimedRequest other{0.0, 32, /*id=*/43};
  // Different keys generally map elsewhere; at minimum the full ranking
  // differs somewhere for these two ids (checked, not assumed).
  EXPECT_NE(router.Rank(other, fleet), first);
}

TEST(KeyAffinityRouterTest, FailoverOnlyRemapsTheLostReplicasKeys) {
  RouterConfig cfg;
  cfg.policy = RouterPolicy::kKeyAffinity;
  Router router(cfg, 4);
  std::vector<ReplicaSnapshot> fleet(4);
  std::vector<std::size_t> owner_before(64);
  for (std::uint64_t id = 0; id < 64; ++id) {
    owner_before[id] = router.Rank({0.0, 32, id}, fleet).front();
  }
  fleet[2].online = false;  // take one replica out
  for (std::uint64_t id = 0; id < 64; ++id) {
    const std::size_t owner_after = router.Rank({0.0, 32, id}, fleet).front();
    if (owner_before[id] != 2) {
      EXPECT_EQ(owner_after, owner_before[id]) << "id " << id;
    } else {
      EXPECT_NE(owner_after, 2u) << "id " << id;
    }
  }
}

TEST(KeyAffinityRouterTest, AnonymousRequestsRotate) {
  RouterConfig cfg;
  cfg.policy = RouterPolicy::kKeyAffinity;
  Router router(cfg, 3);
  std::vector<ReplicaSnapshot> fleet(3);
  const TimedRequest anon{0.0, 32};
  EXPECT_EQ(router.Rank(anon, fleet).front(), 0u);
  EXPECT_EQ(router.Rank(anon, fleet).front(), 1u);
  EXPECT_EQ(router.Rank(anon, fleet).front(), 2u);
}

// --------------------------------------------------------------- Cluster --

ClusterConfig CachedClusterConfig(std::size_t replicas, ClusterCacheMode mode,
                                  bool execute) {
  ClusterConfig cfg;
  for (std::size_t i = 0; i < replicas; ++i) {
    ReplicaConfig rep;
    rep.engine.former.max_batch = 4;
    rep.engine.former.timeout_s = 0.02;
    rep.engine.workers = 1;
    rep.engine.threads = 1;
    rep.engine.inference.mode = InferenceMode::kSparseInt8;
    rep.engine.inference.sparse.top_k = 16;
    rep.engine.execute = execute;
    cfg.replicas.push_back(rep);
  }
  cfg.router.policy = RouterPolicy::kKeyAffinity;
  cfg.cache.mode = mode;
  cfg.cache.config.key_policy = CacheKeyPolicy::kRequestId;
  return cfg;
}

TEST(CachedClusterTest, SharedModeServesRepeatsAcrossTheFleet) {
  const auto trace = SkewedTrace(64, 250, 77, 10, 1.0);
  ServingCluster cluster(
      SmallModel(),
      CachedClusterConfig(3, ClusterCacheMode::kShared, /*execute=*/false));
  const auto result = cluster.Replay(trace);
  EXPECT_GT(result.report.cache.hits + result.report.cache.coalesced, 0u);
  EXPECT_EQ(result.report.cache.lookups, trace.size());
  // One fleet store: snapshot taken once, not once per replica.
  EXPECT_EQ(result.report.cache.store.entries,
            cluster.shared_cache()->entries());
  EXPECT_EQ(result.report.fleet.requests, trace.size());
}

TEST(CachedClusterTest, OutputsBitExactVsSingleUncachedEngine) {
  const auto trace = SkewedTrace(40, 250, 99, 8, 1.0);
  ServingCluster cluster(
      SmallModel(),
      CachedClusterConfig(2, ClusterCacheMode::kShared, /*execute=*/true));
  const auto clustered = cluster.Replay(trace);
  ASSERT_EQ(clustered.routing.admitted, trace.size());

  ServingEngineConfig cfg = CachedEngineConfig();
  cfg.cache.enabled = false;
  cfg.former.max_batch = 1;  // batching does not affect per-sequence math
  ServingEngine single(SmallModel(), cfg);
  const auto dedup = Deduplicated(trace);
  const auto expected = single.Replay(dedup);
  std::map<std::uint64_t, const MatrixF*> by_id;
  for (std::size_t i = 0; i < dedup.size(); ++i) {
    by_id[dedup[i].id] = &expected.outputs[i];
  }
  ASSERT_EQ(clustered.outputs.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(clustered.outputs[i], *by_id.at(trace[i].id)) << "request " << i;
  }
}

TEST(CachedClusterTest, WarmCacheSurvivesFailoverInSharedMode) {
  const auto trace = SkewedTrace(48, 250, 55, 6, 1.0);
  ServingCluster cluster(
      SmallModel(),
      CachedClusterConfig(3, ClusterCacheMode::kShared, /*execute=*/false));
  cluster.Replay(trace);  // warm the fleet store
  const std::size_t warm_entries = cluster.shared_cache()->entries();
  EXPECT_GT(warm_entries, 0u);

  cluster.SetOnline(0, false);  // failover: entries are fleet property
  EXPECT_EQ(cluster.shared_cache()->entries(), warm_entries);
  const auto after = cluster.Replay(trace);
  // Every identity was computed in stream 1, so stream 2 is all hits.
  EXPECT_EQ(after.report.cache.hits, trace.size());
  EXPECT_EQ(after.report.cache.misses, 0u);
}

TEST(CachedClusterTest, PerReplicaModeInvalidatesOfflineReplicasEntries) {
  const auto trace = SkewedTrace(48, 250, 55, 6, 1.0);
  auto run = [&trace](bool fail_replica) {
    ServingCluster cluster(SmallModel(),
                           CachedClusterConfig(
                               3, ClusterCacheMode::kPerReplica,
                               /*execute=*/false));
    cluster.Replay(trace);  // warm every replica's private store
    if (fail_replica) cluster.SetOnline(0, false);
    return cluster.Replay(trace);
  };
  const auto intact = run(false);
  // Key-affinity + private stores: with the fleet intact, stream 2 repeats
  // all hit their home replica.
  EXPECT_EQ(intact.report.cache.hits, trace.size());

  const auto failed = run(true);
  // The offline replica's entries were cleanly dropped: its keys remap to
  // survivors, which must recompute them -- misses, not stale hits.
  EXPECT_LT(failed.report.cache.hits, trace.size());
  EXPECT_GT(failed.report.cache.misses, 0u);
  EXPECT_GT(failed.report.cache.store.invalidations, 0u);
  EXPECT_EQ(failed.report.cache.hits + failed.report.cache.coalesced +
                failed.report.cache.misses,
            trace.size());
}

TEST(CachedClusterTest, AccountingOnlyReplayIsByteDeterministic) {
  const auto trace = SkewedTrace(80, 300, 13, 10, 1.2);
  auto run = [&trace](std::size_t threads) {
    auto cfg =
        CachedClusterConfig(3, ClusterCacheMode::kShared, /*execute=*/false);
    for (auto& rep : cfg.replicas) rep.engine.threads = threads;
    ServingCluster cluster(SmallModel(), cfg);
    return cluster.Replay(trace);
  };
  const auto a = run(1);
  const auto b = run(3);
  EXPECT_TRUE(SameReport(a.report.fleet, b.report.fleet));
  EXPECT_TRUE(SameCacheStats(a.report.cache, b.report.cache));
  EXPECT_EQ(a.replica_of, b.replica_of);
  EXPECT_EQ(a.routing.admitted, b.routing.admitted);
  EXPECT_EQ(a.routing.rerouted, b.routing.rerouted);
}

TEST(CachedClusterTest, ReplicaLevelCacheConflictsWithClusterManagedCache) {
  auto cfg =
      CachedClusterConfig(2, ClusterCacheMode::kShared, /*execute=*/false);
  cfg.replicas[1].engine.cache.enabled = true;
  EXPECT_THROW(ServingCluster(SmallModel(), cfg), std::invalid_argument);
}

TEST(CachedClusterTest, ModeNames) {
  EXPECT_STREQ(ClusterCacheModeName(ClusterCacheMode::kNone), "none");
  EXPECT_STREQ(ClusterCacheModeName(ClusterCacheMode::kPerReplica),
               "per-replica");
  EXPECT_STREQ(ClusterCacheModeName(ClusterCacheMode::kShared), "shared");
}

}  // namespace
}  // namespace latte
