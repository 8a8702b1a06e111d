#pragma once
// One replica of a serving cluster: a ServingEngine (functional twin, or
// accounting-only with an accelerator service model as the performance
// twin) plus the cluster-facing state the router needs -- an online flag
// for drain/failover scenarios and virtual-time load snapshots.
//
// A replica owns its entire serving pipeline (batch former, admission
// queue, virtual backend slots, BatchRunner), so replicas are fully
// independent: heterogeneous fleets just give each replica its own
// ServingEngineConfig (e.g. a slower service model or fewer workers).

#include <memory>
#include <string>

#include "cluster/policy.hpp"
#include "config/check.hpp"
#include "serve/engine.hpp"

namespace latte {

/// One replica's knobs.
struct ReplicaConfig {
  std::string name;            ///< report label; defaults to "replica-<i>"
  ServingEngineConfig engine;  ///< former, workers, queue, service model
};

/// Names every illegal field ("engine."-prefixed dot-paths); empty means
/// legal.
ConfigIssues CheckReplicaConfig(const ReplicaConfig& cfg);

/// A managed ServingEngine inside a cluster.
class Replica {
 public:
  /// The model must outlive the replica (engines share it by reference;
  /// Forward() is const and thread-compatible).  `shared_cache` wires the
  /// engine to a fleet-shared result store (the cluster's kShared cache
  /// mode); null leaves the engine to its own config (private cache or
  /// none).
  Replica(const ModelInstance& model, const ReplicaConfig& cfg,
          std::size_t index,
          std::shared_ptr<ResultCache> shared_cache = nullptr);

  /// Offers a request (with or without a caller-provided embedding).
  /// Returns false when the replica's bounded queue rejects it.
  bool Offer(const TimedRequest& request,
             std::optional<MatrixF> input = std::nullopt) {
    return engine_.Push(request, std::move(input));
  }

  /// Load snapshot at `now`, advancing the replica's virtual time first so
  /// signals are comparable across the fleet at the arrival instant.
  ReplicaSnapshot SnapshotAt(double now);

  /// Executes the admitted stream and resets for the next one.  An
  /// offline replica still drains everything it admitted -- taking a
  /// replica out of rotation never loses work.
  ServingResult Drain() { return engine_.Drain(); }

  /// Drain/failover control: an offline replica receives no new requests
  /// but keeps (and eventually executes) what it already admitted.
  void set_online(bool online) { online_ = online; }
  bool online() const { return online_; }

  /// Whether a request offered at `now` would be served from this
  /// replica's cache (routers use this to bypass the queue-full skip:
  /// hits do not occupy the waiting room).
  bool WouldHitCache(const TimedRequest& request, double now) const {
    return engine_.WouldHitCache(request, now);
  }

  /// Whether the request would coalesce onto an in-flight identical one.
  bool WouldCoalesce(const TimedRequest& request) const {
    return engine_.WouldCoalesce(request);
  }

  /// Failover hygiene: drops a replica-*owned* cache (its entries no
  /// longer represent fleet state once the replica leaves rotation); a
  /// fleet-shared store is untouched.
  void InvalidateOwnedCache() { engine_.InvalidateOwnedCache(); }

  /// The engine underneath, for cache/epoch introspection.
  const ServingEngine& engine() const { return engine_; }
  ServingEngine& engine() { return engine_; }

  const std::string& name() const { return name_; }
  const ServingEngineConfig& engine_config() const { return cfg_.engine; }

 private:
  ReplicaConfig cfg_;
  std::string name_;
  ServingEngine engine_;
  bool online_ = true;
};

}  // namespace latte
