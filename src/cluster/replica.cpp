#include "cluster/replica.hpp"

#include <stdexcept>
#include <utility>

namespace latte {

ConfigIssues CheckReplicaConfig(const ReplicaConfig& cfg) {
  ConfigIssues issues;
  MergePrefixed(issues, "engine", CheckServingEngineConfig(cfg.engine));
  return issues;
}

namespace {

// Validate before the engine member is constructed, so a malformed config
// surfaces with the replica-prefixed message rather than the engine's --
// prefixed with the replica's position so fleet-sized config lists stay
// debuggable.
ReplicaConfig Validated(const ReplicaConfig& cfg, std::size_t index) {
  const std::string label =
      cfg.name.empty()
          ? "replica[" + std::to_string(index) + "]"
          : "replica[" + std::to_string(index) + "] (\"" + cfg.name + "\")";
  ThrowOnIssues(label, CheckReplicaConfig(cfg));
  return cfg;
}

}  // namespace

Replica::Replica(const ModelInstance& model, const ReplicaConfig& cfg,
                 std::size_t index, std::shared_ptr<ResultCache> shared_cache)
    : cfg_(Validated(cfg, index)),
      name_(cfg.name.empty() ? "replica-" + std::to_string(index) : cfg.name),
      engine_(model, cfg_.engine, std::move(shared_cache)) {}

ReplicaSnapshot Replica::SnapshotAt(double now) {
  engine_.AdvanceTo(now);
  ReplicaSnapshot snap;
  snap.online = online_;
  snap.queue_depth = engine_.queue_depth();
  snap.outstanding_tokens = engine_.outstanding_tokens();
  snap.queue_capacity = cfg_.engine.queue_capacity;
  snap.sharded = cfg_.engine.backend == BackendMode::kSharded;
  snap.service_level = engine_.service_level();
  return snap;
}

}  // namespace latte
