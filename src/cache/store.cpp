#include "cache/store.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace latte {
namespace {

ResultCacheConfig Validated(const ResultCacheConfig& cfg) {
  ThrowOnIssues("ResultCacheConfig", CheckResultCacheConfig(cfg));
  return cfg;
}

std::size_t ProtectedCapBytes(const ResultCacheConfig& cfg) {
  if (cfg.eviction != EvictionPolicy::kSegmentedLru ||
      cfg.capacity_bytes == 0) {
    return 0;  // unbounded segment (plain LRU never uses it)
  }
  return static_cast<std::size_t>(
      static_cast<double>(cfg.capacity_bytes) * cfg.protected_fraction);
}

}  // namespace

ConfigIssues CheckResultCacheConfig(const ResultCacheConfig& cfg) {
  ConfigIssues issues;
  // Negated comparisons so NaN fails validation instead of slipping past.
  if (!(cfg.ttl_s >= 0) || std::isinf(cfg.ttl_s)) {
    AddIssue(issues, "ttl_s",
             "must be finite and >= 0 (0 = never expires), got " +
                 std::to_string(cfg.ttl_s));
  }
  if (!(cfg.hit_latency_s >= 0) || std::isinf(cfg.hit_latency_s)) {
    AddIssue(issues, "hit_latency_s",
             "must be finite and >= 0, got " +
                 std::to_string(cfg.hit_latency_s));
  }
  if (cfg.eviction == EvictionPolicy::kSegmentedLru &&
      (!(cfg.protected_fraction > 0) || cfg.protected_fraction > 1)) {
    AddIssue(issues, "protected_fraction",
             "must be in (0, 1] for segmented LRU, got " +
                 std::to_string(cfg.protected_fraction));
  }
  return issues;
}

std::size_t CacheEntryBytes(std::size_t length, std::size_t hidden,
                            const ResultCacheConfig& cfg) {
  return length * hidden * sizeof(float) + cfg.entry_overhead_bytes;
}

ResultCache::ResultCache(const ResultCacheConfig& cfg)
    : cfg_(Validated(cfg)), order_(cfg.eviction, ProtectedCapBytes(cfg)) {}

bool ResultCache::Expired(const CacheEntry& entry, double now) const {
  return cfg_.ttl_s > 0 && now - entry.insert_s >= cfg_.ttl_s;
}

void ResultCache::RemoveEntry(CacheKey key) {
  const auto it = entries_.find(key);
  bytes_used_ -= it->second.bytes;
  order_.Remove(key);
  entries_.erase(it);
  stats_.entries = entries_.size();
  stats_.bytes_used = bytes_used_;
}

void ResultCache::ExpireStale(double now) {
  if (cfg_.ttl_s <= 0) return;
  // Sweep in the deterministic eviction-first order; what is stale is a
  // pure function of insert stamps and `now`, so any full sweep order
  // yields the same survivors -- but the fixed order keeps the stats and
  // any future partial-sweep variant replay-stable too.
  for (CacheKey key : order_.KeysEvictionFirst()) {
    if (Expired(entries_.at(key), now)) {
      RemoveEntry(key);
      ++stats_.expirations;
    }
  }
}

const CacheEntry* ResultCache::Lookup(CacheKey key, double now) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  if (Expired(it->second, now)) {
    RemoveEntry(key);
    ++stats_.expirations;
    return nullptr;
  }
  it->second.last_touch_s = now;
  order_.Touch(key);
  return &it->second;
}

const CacheEntry* ResultCache::Peek(CacheKey key, double now) const {
  const auto it = entries_.find(key);
  if (it == entries_.end() || Expired(it->second, now)) return nullptr;
  return &it->second;
}

bool ResultCache::Contains(CacheKey key, double now) const {
  return Peek(key, now) != nullptr;
}

void ResultCache::Insert(CacheKey key, std::size_t bytes, double now,
                         std::size_t producer, const void* producer_owner) {
  if (key == kNullCacheKey) {
    throw std::invalid_argument(
        "ResultCache::Insert: kNullCacheKey marks an uncacheable request "
        "and must be filtered by the caller");
  }
  ExpireStale(now);

  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Refresh: same content recomputed (the prior entry aged out of the
    // in-flight window or was produced by another engine).  Same key
    // implies same length, hence the same footprint.
    CacheEntry& entry = it->second;
    bytes_used_ += bytes - entry.bytes;
    entry.bytes = bytes;
    entry.insert_s = now;
    entry.pending_producer = producer;
    entry.producer_owner = producer_owner;
    entry.value = MatrixF{};
    order_.Touch(key);
    ++stats_.refreshes;
    stats_.peak_bytes = std::max(stats_.peak_bytes, bytes_used_);
    stats_.entries = entries_.size();
    stats_.bytes_used = bytes_used_;
    return;
  }

  if (cfg_.capacity_bytes > 0 && bytes > cfg_.capacity_bytes) {
    ++stats_.rejected_too_large;
    return;
  }
  while (cfg_.capacity_bytes > 0 &&
         bytes_used_ + bytes > cfg_.capacity_bytes && !order_.empty()) {
    RemoveEntry(order_.Victim());
    ++stats_.evictions;
  }

  CacheEntry entry;
  entry.key = key;
  entry.bytes = bytes;
  entry.insert_s = now;
  entry.last_touch_s = now;
  entry.pending_producer = producer;
  entry.producer_owner = producer_owner;
  entries_.emplace(key, std::move(entry));
  order_.Insert(key, bytes);
  bytes_used_ += bytes;
  ++stats_.insertions;
  stats_.peak_bytes = std::max(stats_.peak_bytes, bytes_used_);
  stats_.entries = entries_.size();
  stats_.bytes_used = bytes_used_;
}

void ResultCache::Materialize(CacheKey key, MatrixF value) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return;  // evicted before execution caught up
  it->second.value = std::move(value);
  it->second.pending_producer = CacheEntry::npos();
  it->second.producer_owner = nullptr;
}

std::vector<std::pair<CacheKey, std::size_t>> ResultCache::PendingOf(
    const void* producer_owner) const {
  std::vector<std::pair<CacheKey, std::size_t>> pending;
  for (CacheKey key : order_.KeysEvictionFirst()) {
    const CacheEntry& entry = entries_.at(key);
    if (entry.pending() && entry.producer_owner == producer_owner) {
      pending.emplace_back(key, entry.pending_producer);
    }
  }
  return pending;
}

void ResultCache::Clear() {
  stats_.invalidations += entries_.size();
  for (CacheKey key : order_.KeysEvictionFirst()) RemoveEntry(key);
  stats_.entries = 0;
  stats_.bytes_used = 0;
}

}  // namespace latte
