#pragma once
// ResultCache: a deterministic, capacity-bounded request-result store.
//
// The cache sits in front of batch forming: a request whose key maps to a
// live entry is served without touching admission, token budgets or the
// backend.  Three properties shape the design:
//
//   * Virtual time.  TTL expiry, recency order and every eviction
//     decision are driven by the caller-supplied virtual timestamps (the
//     serving engine's arrival/completion clock), never the wall clock --
//     so an accounting-only replay is byte-identical at any thread count,
//     exactly like the rest of the serving stack.
//   * Byte-accounted capacity.  Every entry is charged its tensor bytes
//     (length x hidden floats) plus a fixed per-entry overhead, the same
//     capacities-not-live-sizes idiom as runtime/workspace.hpp; inserts
//     evict (expired first, then by policy) until the new entry fits.
//   * Two-phase values.  Entries become *visible* when their producing
//     batch completes in virtual time -- that is what makes a later
//     repeat a hit -- but the tensor itself is only materialized at
//     Drain(), when the functional execution has run.  Until then the
//     entry names its producer (admitted index + owning engine) so the
//     engine can wire hit outputs to the leader's result.  A different
//     engine hitting a still-pending entry (shared store, cross-replica)
//     treats it as a miss in execute mode: the tensor it would need does
//     not exist anywhere yet.
//
// The store is not thread-safe; in a cluster it is driven by the
// single-threaded router loop, which is also what keeps a shared store's
// decision order deterministic.

#include <cstddef>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/eviction.hpp"
#include "cache/key.hpp"
#include "cache/stats.hpp"
#include "config/check.hpp"
#include "tensor/matrix.hpp"

namespace latte {

/// Result-cache knobs (embedded in ServingEngineConfig / ClusterConfig).
struct ResultCacheConfig {
  bool enabled = false;  ///< engines ignore the rest when false
  CacheKeyPolicy key_policy = CacheKeyPolicy::kRequestId;
  EvictionPolicy eviction = EvictionPolicy::kLru;
  /// Byte budget over entry footprints (tensor bytes + entry_overhead);
  /// 0 = unbounded.
  std::size_t capacity_bytes = 64ull << 20;
  /// Entry lifetime since insert/refresh, in virtual seconds; 0 = never
  /// expires.  A hit does not extend the lifetime (staleness is about the
  /// age of the *result*, not its popularity); a re-insert re-anchors it.
  double ttl_s = 0;
  /// Modeled virtual-time cost of serving a hit (lookup + copy-out).
  double hit_latency_s = 1e-4;
  /// SLRU only: byte share of capacity_bytes the protected segment may
  /// hold, in (0, 1].
  double protected_fraction = 0.8;
  /// Fixed per-entry bookkeeping charge on top of the tensor bytes.
  std::size_t entry_overhead_bytes = 64;
};

/// Names every illegal field; empty means legal.
ConfigIssues CheckResultCacheConfig(const ResultCacheConfig& cfg);

/// Footprint one cached result is charged: the output tensor (length x
/// hidden floats) plus the per-entry overhead.  Computable from lengths
/// alone, so accounting-only mode prices capacity without tensors.
std::size_t CacheEntryBytes(std::size_t length, std::size_t hidden,
                            const ResultCacheConfig& cfg);

/// One cached result.
struct CacheEntry {
  CacheKey key = kNullCacheKey;
  std::size_t bytes = 0;    ///< accounted footprint
  double insert_s = 0;      ///< last insert/refresh (the TTL anchor)
  double last_touch_s = 0;  ///< last lookup hit
  /// Admitted index of the producing request in its engine's current
  /// stream, or npos() once `value` is materialized.
  std::size_t pending_producer = static_cast<std::size_t>(-1);
  /// Engine that owes the value while pending (opaque tag), else null.
  const void* producer_owner = nullptr;
  MatrixF value;  ///< empty until materialized (always in accounting mode)

  static constexpr std::size_t npos() { return static_cast<std::size_t>(-1); }
  bool pending() const { return pending_producer != npos(); }
};

/// Capacity-bounded, TTL-expiring, virtually-timed result store.
class ResultCache {
 public:
  explicit ResultCache(const ResultCacheConfig& cfg);

  /// The live entry for `key` at virtual time `now`, touching its recency
  /// order; expired entries are removed (counted as expirations) and
  /// nullptr is returned.  The pointer is valid until the next mutating
  /// call.
  const CacheEntry* Lookup(CacheKey key, double now);

  /// The live entry for `key` at `now` without touching recency or
  /// expiring anything (introspection for routers and tests); nullptr
  /// when absent or stale.
  const CacheEntry* Peek(CacheKey key, double now) const;

  /// Whether `key` is live at `now` (Peek() != nullptr).
  bool Contains(CacheKey key, double now) const;

  /// Makes `key` visible with the given footprint, producer-pending.
  /// Expired entries are swept first, then victims are evicted until the
  /// entry fits; an entry that can never fit is dropped (counted as
  /// rejected_too_large).  Re-inserting a live key refreshes it: the TTL
  /// re-anchors at `now`, recency is touched and the producer is
  /// re-pointed.
  void Insert(CacheKey key, std::size_t bytes, double now,
              std::size_t producer, const void* producer_owner);

  /// Fills the tensor of a pending entry (no-op if the entry was evicted
  /// in the meantime) and clears its producer link.
  void Materialize(CacheKey key, MatrixF value);

  /// (key, producer) of every entry still owing its value to
  /// `producer_owner`, in deterministic (eviction-first) order.  The
  /// engine calls this at Drain() to materialize what survived.
  std::vector<std::pair<CacheKey, std::size_t>> PendingOf(
      const void* producer_owner) const;

  /// Drops every entry (failover invalidation); counted in stats.
  void Clear();

  const CacheStoreStats& stats() const { return stats_; }
  const ResultCacheConfig& config() const { return cfg_; }
  std::size_t entries() const { return entries_.size(); }
  std::size_t bytes_used() const { return bytes_used_; }

 private:
  bool Expired(const CacheEntry& entry, double now) const;
  void RemoveEntry(CacheKey key);
  void ExpireStale(double now);

  ResultCacheConfig cfg_;
  EvictionOrder order_;
  std::unordered_map<CacheKey, CacheEntry> entries_;
  std::size_t bytes_used_ = 0;
  CacheStoreStats stats_;
};

}  // namespace latte
