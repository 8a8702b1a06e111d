#include "search/design_space.hpp"

#include <algorithm>
#include <array>
#include <string>

namespace latte::search {

namespace {

// The space: fleet-size floor and one menu per knob (kMaxReplicas and
// kMaxBackendSlots are in the header).
constexpr std::size_t kMinReplicas = 1;

// Per-replica menus.
constexpr std::array<std::size_t, 5> kMaxBatchMenu = {2, 4, 8, 16, 32};
constexpr std::array<std::size_t, 4> kMaxTokensMenu = {0, 1024, 2048, 4096};
constexpr std::array<double, 5> kTimeoutMenu = {0.005, 0.01, 0.02, 0.05,
                                                0.1};
constexpr std::array<std::size_t, 3> kWorkersMenu = {1, 2, 4};
constexpr std::array<std::size_t, 3> kQueueMenu = {0, 64, 256};
constexpr std::array<std::size_t, 3> kTopKMenu = {16, 30, 64};
constexpr std::array<std::size_t, 2> kDegreeMenu = {2, 4};
/// SLO targets the adaptive controller may aim for.  The ladder itself is
/// canonical -- CanonicalAdaptiveLadder derived from the replica's top_k
/// -- so the space only tunes the enabled bit and the SLO.
constexpr std::array<double, 3> kAdaptSloMenu = {0.05, 0.1, 0.2};

// Router menus.
constexpr std::array<RouterPolicy, 7> kPolicyMenu = {
    RouterPolicy::kRoundRobin,          RouterPolicy::kJoinShortestQueue,
    RouterPolicy::kLeastOutstandingTokens, RouterPolicy::kLengthBucketed,
    RouterPolicy::kKeyAffinity,         RouterPolicy::kLongToSharded,
    RouterPolicy::kLeastDegraded};
const std::array<std::vector<std::size_t>, 2> kEdgesMenu = {
    std::vector<std::size_t>{152}, std::vector<std::size_t>{105, 152, 219}};
constexpr std::array<std::size_t, 3> kThresholdMenu = {128, 192, 256};

// Cache menus.
constexpr std::array<ClusterCacheMode, 3> kCacheModeMenu = {
    ClusterCacheMode::kNone, ClusterCacheMode::kPerReplica,
    ClusterCacheMode::kShared};
constexpr std::array<std::size_t, 3> kCacheCapacityMenu = {
    1u << 20, 8u << 20, 64u << 20};
constexpr std::array<double, 3> kTtlMenu = {0, 5, 30};
constexpr std::array<EvictionPolicy, 2> kEvictionMenu = {
    EvictionPolicy::kLru, EvictionPolicy::kSegmentedLru};

template <typename T, std::size_t N>
bool Contains(const std::array<T, N>& menu, const T& v) {
  return std::find(menu.begin(), menu.end(), v) != menu.end();
}

/// Uniform draw from a menu.
template <typename T, std::size_t N>
const T& Pick(const std::array<T, N>& menu, Rng& rng) {
  return menu[rng.NextIndex(N)];
}

/// One step to a neighboring menu entry (reflecting at the ends so a
/// boundary value always moves).  A value that fell off the menu
/// re-enters with a uniform draw.
template <typename T, std::size_t N>
T Neighbor(const std::array<T, N>& menu, const T& value, Rng& rng) {
  static_assert(N >= 2, "a one-entry menu has no neighbor");
  const auto it = std::find(menu.begin(), menu.end(), value);
  if (it == menu.end()) return Pick(menu, rng);
  const std::size_t idx = static_cast<std::size_t>(it - menu.begin());
  const bool up = rng.NextIndex(2) == 1;
  std::size_t next;
  if (up) {
    next = idx + 1 < N ? idx + 1 : idx - 1;
  } else {
    next = idx > 0 ? idx - 1 : idx + 1;
  }
  return menu[next];
}

/// The inert gang config a replicated replica carries, so designs stay
/// canonical (two designs differing only in an unread shard block would
/// be distinct JSON): the default gang, whose degree is the smallest on
/// the menu and whose fabric is the default interconnect every gang of
/// the deployment prices its collectives on.
static_assert(ShardServiceConfig{}.degree == kDegreeMenu.front());
ShardServiceConfig CanonicalShard() { return ShardServiceConfig{}; }

/// Canonical store knobs for cache_mode == kNone.
ResultCacheConfig NoCache() { return ResultCacheConfig{}; }

/// Field-exact comparison of two adaptive blocks (CheckInSpace accepts
/// only the canonical ladder, so equality is the membership test).
bool SameAdaptive(const AdaptiveServingConfig& a,
                  const AdaptiveServingConfig& b) {
  if (a.enabled != b.enabled || a.tiers.size() != b.tiers.size()) {
    return false;
  }
  for (std::size_t t = 0; t < a.tiers.size(); ++t) {
    if (a.tiers[t].top_k != b.tiers[t].top_k ||
        a.tiers[t].escalate != b.tiers[t].escalate ||
        a.tiers[t].accuracy != b.tiers[t].accuracy) {
      return false;
    }
  }
  return a.slo_p99_s == b.slo_p99_s &&
         a.accuracy_floor == b.accuracy_floor && a.epoch_s == b.epoch_s &&
         a.low_band == b.low_band && a.high_band == b.high_band &&
         a.queue_ref == b.queue_ref &&
         a.latency_window == b.latency_window &&
         a.escalate_margin == b.escalate_margin &&
         a.escalate_bits == b.escalate_bits &&
         a.escalate_rows == b.escalate_rows;
}

ReplicaDesign SampleReplica(Rng& rng) {
  ReplicaDesign rd;
  rd.former.max_batch = Pick(kMaxBatchMenu, rng);
  rd.former.max_tokens = Pick(kMaxTokensMenu, rng);
  rd.former.timeout_s = Pick(kTimeoutMenu, rng);
  rd.former.sort_by_length = rng.NextIndex(2) == 1;
  rd.workers = Pick(kWorkersMenu, rng);
  rd.queue_capacity = Pick(kQueueMenu, rng);
  rd.top_k = Pick(kTopKMenu, rng);
  rd.shard = CanonicalShard();
  // A quarter of sampled replicas start sharded: gangs are the rarer
  // shape, and mutation can always flip the backend later.
  if (rng.NextIndex(4) == 0) {
    rd.backend = BackendMode::kSharded;
    rd.shard.degree = Pick(kDegreeMenu, rng);
  }
  // Likewise a quarter start with the adaptive layer on (mutation can
  // toggle it either way later).
  if (rng.NextIndex(4) == 0) {
    rd.adapt = CanonicalAdaptiveLadder(rd.top_k, Pick(kAdaptSloMenu, rng));
  }
  return rd;
}

/// Re-draws the aux fields a router policy reads and clears the ones it
/// does not, so designs stay canonical across policy changes.
void CanonicalizeRouter(RouterConfig& router, Rng& rng) {
  router.length_edges.clear();
  router.long_len_threshold = 0;
  if (router.policy == RouterPolicy::kLengthBucketed) {
    router.length_edges = Pick(kEdgesMenu, rng);
  } else if (router.policy == RouterPolicy::kLongToSharded) {
    router.long_len_threshold = Pick(kThresholdMenu, rng);
  }
}

/// Fills the store knobs a non-none cache mode reads.
void SampleCacheStore(DesignPoint& dp, Rng& rng) {
  dp.cache = NoCache();
  dp.cache.enabled = true;
  dp.cache.key_policy = CacheKeyPolicy::kRequestId;
  dp.cache.eviction = Pick(kEvictionMenu, rng);
  dp.cache.capacity_bytes = Pick(kCacheCapacityMenu, rng);
  dp.cache.ttl_s = Pick(kTtlMenu, rng);
}

std::size_t ReplicaSlots(const ReplicaDesign& rd) {
  const std::size_t gang =
      rd.backend == BackendMode::kSharded ? rd.shard.degree : 1;
  return rd.workers * gang;
}

/// Deterministically shrinks a design to the slot budget: the widest
/// replica (lowest index on ties) loses workers first, then its gang,
/// then trailing replicas are dropped.  No randomness -- equal inputs
/// repair identically.
void RepairBudget(DesignPoint& dp) {
  while (BackendSlots(dp) > kMaxBackendSlots && !dp.replicas.empty()) {
    std::size_t widest = 0;
    for (std::size_t i = 1; i < dp.replicas.size(); ++i) {
      if (ReplicaSlots(dp.replicas[i]) > ReplicaSlots(dp.replicas[widest])) {
        widest = i;
      }
    }
    ReplicaDesign& rd = dp.replicas[widest];
    if (rd.workers > 1) {
      rd.workers = 1;
    } else if (rd.backend == BackendMode::kSharded) {
      rd.backend = BackendMode::kReplicated;
      rd.shard = CanonicalShard();
    } else if (dp.replicas.size() > kMinReplicas) {
      dp.replicas.pop_back();
    } else {
      break;
    }
  }
}

void MutateReplicaKnob(DesignPoint& dp, std::size_t which, Rng& rng) {
  ReplicaDesign& rd = dp.replicas[which];
  switch (rng.NextIndex(10)) {
    case 0:
      rd.former.max_batch = Neighbor(kMaxBatchMenu, rd.former.max_batch, rng);
      break;
    case 1:
      rd.former.max_tokens =
          Neighbor(kMaxTokensMenu, rd.former.max_tokens, rng);
      break;
    case 2:
      rd.former.timeout_s = Neighbor(kTimeoutMenu, rd.former.timeout_s, rng);
      break;
    case 3:
      rd.former.sort_by_length = !rd.former.sort_by_length;
      break;
    case 4:
      rd.workers = Neighbor(kWorkersMenu, rd.workers, rng);
      break;
    case 5:
      rd.queue_capacity = Neighbor(kQueueMenu, rd.queue_capacity, rng);
      break;
    case 6:
      rd.top_k = Neighbor(kTopKMenu, rd.top_k, rng);
      // Tier 0 is the full-quality service and must track top_k, so an
      // enabled ladder is re-derived (same SLO) rather than invalidated.
      if (rd.adapt.enabled) {
        rd.adapt = CanonicalAdaptiveLadder(rd.top_k, rd.adapt.slo_p99_s);
      }
      break;
    case 7:
      // Backend flip: gangs enter with a drawn degree, leave canonical.
      if (rd.backend == BackendMode::kReplicated) {
        rd.backend = BackendMode::kSharded;
        rd.shard = CanonicalShard();
        rd.shard.degree = Pick(kDegreeMenu, rng);
      } else {
        rd.backend = BackendMode::kReplicated;
        rd.shard = CanonicalShard();
      }
      break;
    case 8:
      if (rd.backend == BackendMode::kSharded) {
        rd.shard.degree = Neighbor(kDegreeMenu, rd.shard.degree, rng);
      } else {
        rd.backend = BackendMode::kSharded;
        rd.shard = CanonicalShard();
        rd.shard.degree = Pick(kDegreeMenu, rng);
      }
      break;
    case 9:
      // Adaptive toggle: enabling installs the canonical ladder with a
      // freshly drawn SLO; disabling restores the default-constructed
      // block so designs stay canonical (an unread adapt block would
      // make otherwise-equal designs distinct JSON).  The engine forbids
      // cache + adaptive, so enabling the layer also drops the fleet
      // cache (the reverse cache move drops the adapt blocks) -- without
      // the coupling one side of the conflict would be unreachable from
      // the other.
      if (rd.adapt.enabled) {
        rd.adapt = AdaptiveServingConfig{};
      } else {
        rd.adapt = CanonicalAdaptiveLadder(rd.top_k, Pick(kAdaptSloMenu, rng));
        dp.cache_mode = ClusterCacheMode::kNone;
        dp.cache = NoCache();
      }
      break;
  }
}

void MutateCache(DesignPoint& dp, Rng& rng) {
  const bool had_store = dp.cache_mode != ClusterCacheMode::kNone;
  if (!had_store || rng.NextIndex(4) == 0) {
    dp.cache_mode = Neighbor(kCacheModeMenu, dp.cache_mode, rng);
    if (dp.cache_mode == ClusterCacheMode::kNone) {
      dp.cache = NoCache();
    } else if (!had_store) {
      SampleCacheStore(dp, rng);
    }
    if (dp.cache_mode != ClusterCacheMode::kNone) {
      // Cache + adaptive is forbidden; turning the store on evicts the
      // adapt blocks (mirrors the adaptive toggle dropping the cache).
      for (ReplicaDesign& rd : dp.replicas) {
        rd.adapt = AdaptiveServingConfig{};
      }
    }
    return;
  }
  switch (rng.NextIndex(3)) {
    case 0:
      dp.cache.capacity_bytes =
          Neighbor(kCacheCapacityMenu, dp.cache.capacity_bytes, rng);
      break;
    case 1:
      dp.cache.ttl_s = Neighbor(kTtlMenu, dp.cache.ttl_s, rng);
      break;
    case 2:
      dp.cache.eviction = Neighbor(kEvictionMenu, dp.cache.eviction, rng);
      break;
  }
}

}  // namespace

std::size_t BackendSlots(const DesignPoint& dp) {
  std::size_t slots = 0;
  for (const ReplicaDesign& rd : dp.replicas) slots += ReplicaSlots(rd);
  return slots;
}

AdaptiveServingConfig CanonicalAdaptiveLadder(std::size_t top_k,
                                              double slo_p99_s) {
  AdaptiveServingConfig adapt;
  adapt.enabled = true;
  adapt.slo_p99_s = slo_p99_s;
  adapt.tiers.resize(3);
  adapt.tiers[0] = ServiceTier{top_k, false, 1.0};
  adapt.tiers[1] =
      ServiceTier{std::max<std::size_t>(top_k / 2, 2), false, 0.97};
  adapt.tiers[2] =
      ServiceTier{std::max<std::size_t>(top_k / 4, 1), true, 0.9};
  return adapt;
}

ConfigIssues CheckInSpace(const DesignPoint& dp) {
  ConfigIssues issues = CheckDesignPoint(dp);
  if (dp.replicas.size() < kMinReplicas || dp.replicas.size() > kMaxReplicas) {
    AddIssue(issues, "replicas",
             "fleet size must be in [" + std::to_string(kMinReplicas) +
                 ", " + std::to_string(kMaxReplicas) + "], got " +
                 std::to_string(dp.replicas.size()));
  }
  const std::size_t slots = BackendSlots(dp);
  if (slots > kMaxBackendSlots) {
    AddIssue(issues, "replicas",
             "provisions " + std::to_string(slots) +
                 " backend slots, over the budget of " +
                 std::to_string(kMaxBackendSlots));
  }
  for (std::size_t i = 0; i < dp.replicas.size(); ++i) {
    const ReplicaDesign& rd = dp.replicas[i];
    const std::string prefix = "replicas[" + std::to_string(i) + "]";
    if (!Contains(kMaxBatchMenu, rd.former.max_batch)) {
      AddIssue(issues, prefix + ".former.max_batch", "is not on the menu");
    }
    if (!Contains(kMaxTokensMenu, rd.former.max_tokens)) {
      AddIssue(issues, prefix + ".former.max_tokens", "is not on the menu");
    }
    if (!Contains(kTimeoutMenu, rd.former.timeout_s)) {
      AddIssue(issues, prefix + ".former.timeout_s", "is not on the menu");
    }
    if (!Contains(kWorkersMenu, rd.workers)) {
      AddIssue(issues, prefix + ".workers", "is not on the menu");
    }
    if (!Contains(kQueueMenu, rd.queue_capacity)) {
      AddIssue(issues, prefix + ".queue_capacity", "is not on the menu");
    }
    if (!Contains(kTopKMenu, rd.top_k)) {
      AddIssue(issues, prefix + ".top_k", "is not on the menu");
    }
    if (rd.backend == BackendMode::kSharded &&
        !Contains(kDegreeMenu, rd.shard.degree)) {
      AddIssue(issues, prefix + ".shard.degree", "is not on the menu");
    }
    if (rd.adapt.enabled) {
      if (!Contains(kAdaptSloMenu, rd.adapt.slo_p99_s)) {
        AddIssue(issues, prefix + ".adapt.slo_p99_s", "is not on the menu");
      }
      if (!SameAdaptive(rd.adapt, CanonicalAdaptiveLadder(
                                      rd.top_k, rd.adapt.slo_p99_s))) {
        AddIssue(issues, prefix + ".adapt",
                 "is not the canonical ladder for this top_k (the space "
                 "tunes only the enabled bit and the SLO)");
      }
    }
  }
  if (!Contains(kPolicyMenu, dp.router.policy)) {
    AddIssue(issues, "router.policy", "is not on the menu");
  }
  if (dp.router.policy == RouterPolicy::kLengthBucketed &&
      !Contains(kEdgesMenu, dp.router.length_edges)) {
    AddIssue(issues, "router.length_edges", "is not on the menu");
  }
  if (dp.router.policy == RouterPolicy::kLongToSharded &&
      !Contains(kThresholdMenu, dp.router.long_len_threshold)) {
    AddIssue(issues, "router.long_len_threshold", "is not on the menu");
  }
  if (!Contains(kCacheModeMenu, dp.cache_mode)) {
    AddIssue(issues, "cache.mode", "is not on the menu");
  }
  if (dp.cache_mode != ClusterCacheMode::kNone) {
    if (!Contains(kCacheCapacityMenu, dp.cache.capacity_bytes)) {
      AddIssue(issues, "cache.capacity_bytes", "is not on the menu");
    }
    if (!Contains(kTtlMenu, dp.cache.ttl_s)) {
      AddIssue(issues, "cache.ttl_s", "is not on the menu");
    }
    if (!Contains(kEvictionMenu, dp.cache.eviction)) {
      AddIssue(issues, "cache.eviction", "is not on the menu");
    }
  }
  return issues;
}

DesignPoint SampleDesign(Rng& rng) {
  DesignPoint dp;
  const std::size_t fleet =
      kMinReplicas + rng.NextIndex(kMaxReplicas - kMinReplicas + 1);
  dp.replicas.reserve(fleet);
  for (std::size_t i = 0; i < fleet; ++i) {
    dp.replicas.push_back(SampleReplica(rng));
  }
  dp.router.policy = Pick(kPolicyMenu, rng);
  CanonicalizeRouter(dp.router, rng);
  dp.cache_mode = Pick(kCacheModeMenu, rng);
  if (dp.cache_mode != ClusterCacheMode::kNone) {
    SampleCacheStore(dp, rng);
    // The engine forbids cache + adaptive on one replica; the sample
    // keeps the drawn store and drops the adaptive layers so it always
    // passes CheckInSpace (mutation can reintroduce either side).
    for (ReplicaDesign& rd : dp.replicas) rd.adapt = AdaptiveServingConfig{};
  } else {
    dp.cache = NoCache();
  }
  RepairBudget(dp);
  return dp;
}

DesignPoint MutateDesign(const DesignPoint& dp, Rng& rng) {
  DesignPoint next = dp;
  const std::size_t move = rng.NextIndex(8);
  switch (move) {
    case 0:  // grow the fleet: clone an existing replica
      if (next.replicas.size() < kMaxReplicas && !next.replicas.empty()) {
        next.replicas.push_back(
            next.replicas[rng.NextIndex(next.replicas.size())]);
        return next;
      }
      break;
    case 1:  // shrink the fleet
      if (next.replicas.size() > kMinReplicas) {
        next.replicas.erase(next.replicas.begin() +
                            static_cast<std::ptrdiff_t>(
                                rng.NextIndex(next.replicas.size())));
        return next;
      }
      break;
    case 6:  // router move
      next.router.policy = Pick(kPolicyMenu, rng);
      CanonicalizeRouter(next.router, rng);
      return next;
    case 7:  // cache move
      MutateCache(next, rng);
      return next;
    default:
      break;
  }
  // Knob move (cases 2-5, and the fallback when a fleet move was not
  // applicable at the current size).
  if (!next.replicas.empty()) {
    MutateReplicaKnob(next, rng.NextIndex(next.replicas.size()), rng);
  }
  return next;
}

}  // namespace latte::search
