#pragma once
// Pluggable request-routing policies for a multi-replica serving cluster.
//
// The router sees one arrival at a time plus a virtual-time load snapshot
// of every replica and produces a *preference order* over the online
// replicas.  Returning a ranking instead of a single pick is what makes
// per-replica backpressure composable: the cluster offers the request to
// each ranked replica in turn, so a full admission queue bounces the
// request to the next-best replica instead of dropping it outright.
//
// Every policy is deterministic -- ties break toward the lowest replica
// index and the round-robin cursor advances once per offered request --
// so a routed trace is reproducible at any thread count.

#include <cstddef>
#include <vector>

#include "config/check.hpp"
#include "workload/arrivals.hpp"

namespace latte {

/// How the cluster spreads arrivals across replicas.
enum class RouterPolicy {
  kRoundRobin,              ///< rotate through online replicas
  kJoinShortestQueue,       ///< fewest waiting requests first
  kLeastOutstandingTokens,  ///< fewest admitted-but-unfinished tokens first
  /// Keep same-length requests together: bucket the arrival by length and
  /// pin each bucket to a home replica, so every replica's batches hold
  /// similar lengths and batch density stays high (less padding waste on
  /// padded backends, fuller token budgets on length-aware ones).
  kLengthBucketed,
  /// Cache-aware routing: requests sharing a content identity rank
  /// replicas by rendezvous (highest-random-weight) hashing of the id,
  /// so repeats land on the replica whose cache owns the entry -- and a
  /// replica going offline only remaps the keys it owned, never the
  /// survivors' (the warm-cache failover property).  Anonymous requests
  /// fall back to the round-robin rotation.
  kKeyAffinity,
  /// Sharding-aware routing for mixed fleets: requests at least
  /// `long_len_threshold` tokens long prefer tensor-parallel (sharded)
  /// replicas -- whose gangs cut long-sequence latency by the compute
  /// share -- while shorter requests prefer replicated ones, where the
  /// gang's collective overhead is not worth paying.  Within each class
  /// replicas rank by shortest queue; the non-preferred class follows as
  /// fallback so backpressure can still bounce a request across classes
  /// instead of dropping it.
  kLongToSharded,
  /// Degradation-aware routing for adaptive fleets: rank replicas by
  /// ascending controller level (ReplicaSnapshot::service_level), so new
  /// requests prefer the replica still serving full quality; ties break
  /// by shortest queue, then lowest index.  A non-adaptive replica
  /// always reports level 0 and so ranks as full quality.
  kLeastDegraded,
};

/// Human-readable policy name (bench/report labels).
const char* RouterPolicyName(RouterPolicy policy);

/// The rendezvous weight of (content id, replica) under kKeyAffinity:
/// the online replica with the highest score owns the key.  Exposed so
/// tests can predict placements.
std::uint64_t RendezvousScore(std::uint64_t id, std::size_t replica);

/// Router knobs.
struct RouterConfig {
  RouterPolicy policy = RouterPolicy::kRoundRobin;
  /// Ascending length upper bounds for kLengthBucketed: bucket b holds
  /// lengths <= length_edges[b]; one extra bucket catches the rest.
  /// Ignored by the other policies.
  std::vector<std::size_t> length_edges;
  /// kLongToSharded: requests of at least this many tokens prefer
  /// sharded replicas (must be >= 1 for that policy; ignored by others).
  std::size_t long_len_threshold = 0;
};

/// Names every field that is illegal for a cluster of `replicas`
/// replicas; empty means legal.
ConfigIssues CheckRouterConfig(const RouterConfig& cfg, std::size_t replicas);

/// Virtual-time load signals of one replica at an arrival instant, read
/// after the replica advanced to that instant.
struct ReplicaSnapshot {
  bool online = true;                  ///< eligible for new requests
  std::size_t queue_depth = 0;         ///< admitted, batch not yet launched
  std::size_t outstanding_tokens = 0;  ///< admitted tokens not yet completed
  /// The replica's waiting-room bound; 0 = unbounded.
  std::size_t queue_capacity = 0;
  /// Whether the replica's backend is a tensor-parallel gang
  /// (BackendMode::kSharded); kLongToSharded steers on this.
  bool sharded = false;
  /// The replica's adaptive-controller degradation level (0 = full
  /// quality, also for non-adaptive replicas); kLeastDegraded steers on
  /// this.
  std::size_t service_level = 0;
};

/// One policy instance with its (tiny) routing state.
class Router {
 public:
  /// `replicas` is the fleet size the rankings rotate over.
  Router(const RouterConfig& cfg, std::size_t replicas);

  /// Preference-ordered replica indices for this arrival; offline
  /// replicas are excluded (an empty ranking means nothing is routable).
  std::vector<std::size_t> Rank(const TimedRequest& request,
                                const std::vector<ReplicaSnapshot>& fleet);

  /// Length bucket of a request under kLengthBucketed.
  std::size_t BucketOf(std::size_t length) const;

  /// Restores the initial routing state (round-robin cursor).
  void Reset() { cursor_ = 0; }

  const RouterConfig& config() const { return cfg_; }

 private:
  RouterConfig cfg_;
  std::size_t replica_count_;
  std::size_t cursor_ = 0;  ///< round-robin position, advances per arrival
};

}  // namespace latte
