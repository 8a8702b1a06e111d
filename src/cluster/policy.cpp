#include "cluster/policy.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace latte {
namespace {

// Rotation over online replicas starting at `start`: the shared shape of
// the round-robin and length-bucketed rankings.
std::vector<std::size_t> RotationFrom(
    std::size_t start, const std::vector<ReplicaSnapshot>& fleet) {
  std::vector<std::size_t> ranked;
  ranked.reserve(fleet.size());
  for (std::size_t step = 0; step < fleet.size(); ++step) {
    const std::size_t idx = (start + step) % fleet.size();
    if (fleet[idx].online) ranked.push_back(idx);
  }
  return ranked;
}

// Online replicas sorted ascending by a load key, ties toward the lowest
// index (std::sort on the (key, index) pair is strict-weak and total).
template <typename KeyFn>
std::vector<std::size_t> SortedByLoad(const std::vector<ReplicaSnapshot>& fleet,
                                      KeyFn key) {
  std::vector<std::size_t> ranked;
  ranked.reserve(fleet.size());
  for (std::size_t idx = 0; idx < fleet.size(); ++idx) {
    if (fleet[idx].online) ranked.push_back(idx);
  }
  std::sort(ranked.begin(), ranked.end(), [&](std::size_t a, std::size_t b) {
    const std::size_t ka = key(fleet[a]);
    const std::size_t kb = key(fleet[b]);
    return ka != kb ? ka < kb : a < b;
  });
  return ranked;
}

}  // namespace

const char* RouterPolicyName(RouterPolicy policy) {
  switch (policy) {
    case RouterPolicy::kRoundRobin:
      return "round-robin";
    case RouterPolicy::kJoinShortestQueue:
      return "join-shortest-queue";
    case RouterPolicy::kLeastOutstandingTokens:
      return "least-outstanding-tokens";
    case RouterPolicy::kLengthBucketed:
      return "length-bucketed";
    case RouterPolicy::kKeyAffinity:
      return "key-affinity";
    case RouterPolicy::kLongToSharded:
      return "long-to-sharded";
    case RouterPolicy::kLeastDegraded:
      return "least-degraded";
  }
  return "unknown";
}

ConfigIssues CheckRouterConfig(const RouterConfig& cfg, std::size_t replicas) {
  ConfigIssues issues;
  switch (cfg.policy) {
    case RouterPolicy::kRoundRobin:
    case RouterPolicy::kJoinShortestQueue:
    case RouterPolicy::kLeastOutstandingTokens:
    case RouterPolicy::kKeyAffinity:
    case RouterPolicy::kLeastDegraded:
      break;
    case RouterPolicy::kLongToSharded:
      if (cfg.long_len_threshold == 0) {
        AddIssue(issues, "long_len_threshold",
                 "must be >= 1 for the long-to-sharded policy (it is the "
                 "length at which requests start preferring sharded "
                 "replicas)");
      }
      break;
    case RouterPolicy::kLengthBucketed: {
      if (cfg.length_edges.empty()) {
        AddIssue(issues, "length_edges",
                 "must name at least one length upper bound for the "
                 "length-bucketed policy (e.g. {64, 128} for "
                 "short/medium/long buckets)");
      }
      std::size_t prev = 0;
      for (std::size_t edge : cfg.length_edges) {
        if (edge == 0) {
          AddIssue(issues, "length_edges",
                   "entries must be >= 1 (a 0-token bucket can never match "
                   "a request)");
          break;
        }
        if (edge <= prev && prev != 0) {
          AddIssue(issues, "length_edges",
                   "must be strictly increasing (got " + std::to_string(edge) +
                       " after " + std::to_string(prev) + ")");
          break;
        }
        prev = edge;
      }
      break;
    }
    default:
      AddIssue(issues, "policy", "is not a known RouterPolicy value");
      break;
  }
  if (replicas == 0) {
    AddIssue(issues, "replicas",
             "a router needs at least one replica to route to");
  }
  return issues;
}

Router::Router(const RouterConfig& cfg, std::size_t replicas)
    : cfg_(cfg), replica_count_(replicas) {
  ThrowOnIssues("RouterConfig", CheckRouterConfig(cfg_, replicas));
}

std::uint64_t RendezvousScore(std::uint64_t id, std::size_t replica) {
  return MixHash64(id ^ MixHash64(0x517cc1b727220a95ULL *
                                  (static_cast<std::uint64_t>(replica) + 1)));
}

std::size_t Router::BucketOf(std::size_t length) const {
  const auto it = std::lower_bound(cfg_.length_edges.begin(),
                                   cfg_.length_edges.end(), length);
  return static_cast<std::size_t>(it - cfg_.length_edges.begin());
}

std::vector<std::size_t> Router::Rank(
    const TimedRequest& request, const std::vector<ReplicaSnapshot>& fleet) {
  if (fleet.size() != replica_count_) {
    throw std::invalid_argument(
        "Router::Rank: snapshot covers " + std::to_string(fleet.size()) +
        " replicas but the router was built for " +
        std::to_string(replica_count_));
  }
  switch (cfg_.policy) {
    case RouterPolicy::kRoundRobin: {
      const std::size_t start = cursor_ % replica_count_;
      ++cursor_;  // advances per offered request, online or not
      return RotationFrom(start, fleet);
    }
    case RouterPolicy::kJoinShortestQueue:
      return SortedByLoad(
          fleet, [](const ReplicaSnapshot& s) { return s.queue_depth; });
    case RouterPolicy::kLeastOutstandingTokens:
      return SortedByLoad(fleet, [](const ReplicaSnapshot& s) {
        return s.outstanding_tokens;
      });
    case RouterPolicy::kLengthBucketed:
      return RotationFrom(BucketOf(request.length) % replica_count_, fleet);
    case RouterPolicy::kLongToSharded: {
      // Preferred backend class first (long requests -> sharded gangs,
      // short -> replicated), join-shortest-queue within a class, the
      // other class trailing as backpressure fallback.
      const bool want_sharded = request.length >= cfg_.long_len_threshold;
      std::vector<std::size_t> ranked;
      ranked.reserve(fleet.size());
      for (std::size_t idx = 0; idx < fleet.size(); ++idx) {
        if (fleet[idx].online) ranked.push_back(idx);
      }
      std::sort(ranked.begin(), ranked.end(),
                [&](std::size_t a, std::size_t b) {
                  const bool pa = fleet[a].sharded == want_sharded;
                  const bool pb = fleet[b].sharded == want_sharded;
                  if (pa != pb) return pa;
                  if (fleet[a].queue_depth != fleet[b].queue_depth) {
                    return fleet[a].queue_depth < fleet[b].queue_depth;
                  }
                  return a < b;
                });
      return ranked;
    }
    case RouterPolicy::kLeastDegraded: {
      // Full-quality replicas first; shortest queue breaks level ties so
      // the policy still spreads load once every replica degrades.
      std::vector<std::size_t> ranked;
      ranked.reserve(fleet.size());
      for (std::size_t idx = 0; idx < fleet.size(); ++idx) {
        if (fleet[idx].online) ranked.push_back(idx);
      }
      std::sort(ranked.begin(), ranked.end(),
                [&](std::size_t a, std::size_t b) {
                  if (fleet[a].service_level != fleet[b].service_level) {
                    return fleet[a].service_level < fleet[b].service_level;
                  }
                  if (fleet[a].queue_depth != fleet[b].queue_depth) {
                    return fleet[a].queue_depth < fleet[b].queue_depth;
                  }
                  return a < b;
                });
      return ranked;
    }
    case RouterPolicy::kKeyAffinity: {
      if (request.id == kAnonymousId) {
        // No content identity to pin on: spread like round-robin (and
        // advance the same cursor, so mixed traffic still rotates).
        const std::size_t start = cursor_ % replica_count_;
        ++cursor_;
        return RotationFrom(start, fleet);
      }
      // Rendezvous (highest-random-weight): every (key, replica) pair
      // gets a deterministic score and replicas rank by descending
      // score.  Removing a replica never reorders the survivors, so a
      // failover only remaps the keys the lost replica owned.
      std::vector<std::size_t> ranked;
      ranked.reserve(fleet.size());
      for (std::size_t idx = 0; idx < fleet.size(); ++idx) {
        if (fleet[idx].online) ranked.push_back(idx);
      }
      std::sort(ranked.begin(), ranked.end(),
                [&](std::size_t a, std::size_t b) {
                  const std::uint64_t ka = RendezvousScore(request.id, a);
                  const std::uint64_t kb = RendezvousScore(request.id, b);
                  return ka != kb ? ka > kb : a < b;
                });
      return ranked;
    }
  }
  return {};
}

}  // namespace latte
