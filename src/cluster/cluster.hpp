#pragma once
// ServingCluster: N serving replicas behind one router.
//
// The cluster fans a timestamped request stream out across a fleet of
// replicas (each its own ServingEngine: batch former, bounded admission
// queue, virtual backend slots, BatchRunner), with a pluggable routing
// policy and per-replica backpressure: a full replica bounces the request
// to the router's next choice, and only when every routable replica is
// full (or the whole fleet is offline) is the request rejected.
//
// Determinism mirrors the single engine's: routing decisions, batches,
// admission and the virtual-time reports depend only on the trace and the
// configs -- never on thread count or wall clock -- and in real-execution
// mode outputs are bit-exact against one ServingEngine replaying the same
// admitted requests with the same embeddings (request identity is the
// cluster-level offered ordinal).  With `execute = false` on every
// replica the cluster is a pure virtual-time policy simulator: byte-
// identical reports at any thread count, cheap enough for policy sweeps.
//
// Drain/failover: SetOnline(i, false) takes a replica out of rotation
// mid-stream.  It keeps and executes everything it already admitted (no
// admitted request is ever lost); new arrivals redistribute across the
// remaining fleet.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/accounting.hpp"
#include "cluster/policy.hpp"
#include "cluster/replica.hpp"
#include "config/check.hpp"

namespace latte {

/// Where the fleet's result cache lives.
enum class ClusterCacheMode {
  kNone,  ///< no cluster-managed cache (replicas may still bring their own)
  /// Every replica owns a private store built from the same config.
  /// Failover invalidates the offline replica's entries (they no longer
  /// represent fleet state); pair with key-affinity routing so repeats
  /// find the replica that owns their entry.
  kPerReplica,
  /// One fleet-shared store referenced by every replica: a result
  /// computed anywhere serves repeats routed anywhere, and a replica
  /// going offline loses nothing (its entries belong to the fleet).
  kShared,
};

/// Human-readable mode name (bench/report labels).
const char* ClusterCacheModeName(ClusterCacheMode mode);

/// Fleet-front result cache knobs.
struct ClusterCacheConfig {
  ClusterCacheMode mode = ClusterCacheMode::kNone;
  /// Store parameters (capacity is per store: the shared mode has one
  /// budget for the fleet, per-replica mode one per replica).  The
  /// `enabled` flag is implied by `mode` and ignored here.
  ResultCacheConfig config;
};

/// Whole-fleet configuration.
struct ClusterConfig {
  std::vector<ReplicaConfig> replicas;
  RouterConfig router;
  /// Seed for embeddings synthesized at cluster level; request identity is
  /// the cluster Push() ordinal -- or the content id when the request
  /// carries one -- so outputs are independent of routing.
  std::uint64_t embed_seed = 1;
  /// Fleet-front result cache (kNone leaves caching to the per-replica
  /// engine configs, which must not set one when a mode is chosen here).
  ClusterCacheConfig cache;
  /// Fleet-wide request-lifecycle tracing: one obs::Tracer spanning every
  /// replica, each on its own track range ("r0/worker 1", "r1/control").
  /// Mutually exclusive with per-replica engine tracing.
  obs::TraceConfig trace;
};

/// Names every illegal field across the whole fleet aggregate (replica
/// entries carry "replica[i]." prefixes, the router "router.", the fleet
/// cache "cache."); empty means legal.
ConfigIssues CheckClusterConfig(const ClusterConfig& cfg);

/// Cluster-level admission/routing accounting.
struct ClusterRoutingStats {
  std::size_t offered = 0;   ///< Push() calls
  std::size_t admitted = 0;  ///< accepted by some replica
  std::size_t rejected = 0;  ///< no routable replica had room
  /// Admitted, but not by the router's first choice (bounced off at least
  /// one full queue first).
  std::size_t rerouted = 0;
  /// Rejections with no online replica at all (subset of `rejected`).
  std::size_t unroutable = 0;
};

/// Everything one cluster stream produces.
struct ClusterResult {
  ClusterReport report;
  ClusterRoutingStats routing;
  std::vector<ServingResult> replica_results;  ///< one per replica
  /// Push() ordinal -> replica index, or npos() for rejected requests.
  std::vector<std::size_t> replica_of;
  /// Push() ordinal -> model output; empty matrix for rejected requests
  /// and in accounting-only mode.
  std::vector<MatrixF> outputs;

  static constexpr std::size_t npos() { return static_cast<std::size_t>(-1); }
  const ServingReport& fleet() const { return report.fleet; }
};

/// N replicas behind a router.
class ServingCluster {
 public:
  /// The model must outlive the cluster; all replicas share it (weights
  /// are immutable, Forward() is const and thread-compatible).
  ServingCluster(const ModelInstance& model, const ClusterConfig& cfg);

  /// Routes one request, optionally with a caller-provided embedding
  /// (length x hidden).  Returns false when it was rejected (every
  /// routable replica full, or the fleet offline).  Arrivals must be
  /// finite and non-decreasing in time; otherwise Push throws
  /// std::invalid_argument.
  bool Push(const TimedRequest& request,
            std::optional<MatrixF> input = std::nullopt);

  /// Drains every replica (executing admitted batches in real-execution
  /// mode), merges the fleet accounting and resets for the next stream.
  ClusterResult Drain();

  /// Push() + Drain() over a whole trace.
  ClusterResult Replay(const std::vector<TimedRequest>& trace);

  /// Drain/failover control: an offline replica leaves the routing
  /// rotation but keeps and executes what it already admitted.  In
  /// per-replica cache mode, going offline also invalidates the
  /// replica's private store (its entries no longer represent fleet
  /// state); in shared mode the fleet store is untouched, so a warm
  /// cache survives the failover.
  void SetOnline(std::size_t replica, bool online);

  /// The fleet-shared store (null outside kShared mode).
  const std::shared_ptr<ResultCache>& shared_cache() const {
    return shared_cache_;
  }

  std::size_t replica_count() const { return replicas_.size(); }
  const Replica& replica(std::size_t i) const { return *replicas_[i]; }
  const ClusterRoutingStats& routing() const { return routing_; }

  /// The fleet tracer (null when cfg.trace is disabled).  Tracks are laid
  /// out replica-major: replica i occupies [base_i, base_i + workers_i],
  /// workers first, control lane last.
  obs::Tracer* tracer() const { return fleet_tracer_.get(); }

 private:
  bool PushImpl(const TimedRequest& request, MatrixF input, bool has_input);
  void ResetStream();

  const ModelInstance& model_;
  ClusterConfig cfg_;
  bool execute_ = true;  ///< uniform across replicas (validated)
  Router router_;
  std::shared_ptr<ResultCache> shared_cache_;  ///< kShared mode only
  std::unique_ptr<obs::Tracer> fleet_tracer_;  ///< cfg.trace.enabled only
  /// unique_ptr because a Replica owns a ServingEngine (whose BatchRunner
  /// is neither copyable nor movable).
  std::vector<std::unique_ptr<Replica>> replicas_;

  // Stream state.
  std::vector<std::vector<TimedRequest>> offers_;       ///< per replica
  std::vector<std::vector<std::size_t>> offer_global_;  ///< -> Push ordinal
  std::vector<std::size_t> replica_of_;
  double last_arrival_ = 0;
  ClusterRoutingStats routing_;
};

}  // namespace latte
