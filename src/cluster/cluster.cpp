#include "cluster/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace latte {
namespace {

ClusterConfig Validated(const ClusterConfig& cfg) {
  ThrowOnIssues("ClusterConfig", CheckClusterConfig(cfg));
  return cfg;
}

}  // namespace

const char* ClusterCacheModeName(ClusterCacheMode mode) {
  switch (mode) {
    case ClusterCacheMode::kNone:
      return "none";
    case ClusterCacheMode::kPerReplica:
      return "per-replica";
    case ClusterCacheMode::kShared:
      return "shared";
  }
  return "unknown";
}

ConfigIssues CheckClusterConfig(const ClusterConfig& cfg) {
  ConfigIssues issues;
  if (cfg.replicas.empty()) {
    AddIssue(issues, "replicas",
             "must name at least one replica (an empty fleet cannot serve)");
    return issues;
  }
  for (std::size_t i = 0; i < cfg.replicas.size(); ++i) {
    MergePrefixed(issues, "replica[" + std::to_string(i) + "]",
                  CheckReplicaConfig(cfg.replicas[i]));
  }
  if (cfg.cache.mode != ClusterCacheMode::kNone) {
    MergePrefixed(issues, "cache", CheckResultCacheConfig(cfg.cache.config));
    for (std::size_t i = 0; i < cfg.replicas.size(); ++i) {
      if (cfg.replicas[i].engine.cache.enabled) {
        AddIssue(issues,
                 "replica[" + std::to_string(i) + "].engine.cache.enabled",
                 "conflicts with the cluster-managed cache (mode " +
                     std::string(ClusterCacheModeName(cfg.cache.mode)) +
                     "); configure one or the other");
      }
      if (cfg.replicas[i].engine.adapt.enabled) {
        AddIssue(
            issues,
            "replica[" + std::to_string(i) + "].engine.adapt.enabled",
            "conflicts with the cluster-managed cache (the engine forbids "
            "cache + adaptive; drop the fleet cache or this replica's "
            "adaptive layer)");
      }
    }
  }
  const bool execute = cfg.replicas.front().engine.execute;
  for (std::size_t i = 1; i < cfg.replicas.size(); ++i) {
    if (cfg.replicas[i].engine.execute != execute) {
      AddIssue(issues, "replica[" + std::to_string(i) + "].engine.execute",
               "disagrees with replica[0]; the fleet must be uniformly "
               "functional or uniformly accounting-only (mixed modes would "
               "make ClusterResult::outputs partially empty)");
    }
  }
  MergePrefixed(issues, "router",
                CheckRouterConfig(cfg.router, cfg.replicas.size()));
  if (cfg.trace.enabled) {
    MergePrefixed(issues, "trace", obs::CheckTraceConfig(cfg.trace));
    for (std::size_t i = 0; i < cfg.replicas.size(); ++i) {
      if (cfg.replicas[i].engine.trace.enabled) {
        AddIssue(issues,
                 "replica[" + std::to_string(i) + "].engine.trace.enabled",
                 "conflicts with the fleet tracer (the cluster attaches one "
                 "tracer spanning every replica; configure one or the "
                 "other)");
      }
    }
  }
  return issues;
}

ServingCluster::ServingCluster(const ModelInstance& model,
                               const ClusterConfig& cfg)
    : model_(model),
      cfg_(Validated(cfg)),
      execute_(cfg_.replicas.front().engine.execute),
      router_(cfg_.router, cfg_.replicas.size()) {
  if (cfg_.cache.mode != ClusterCacheMode::kNone) {
    // The cluster owns the cache decision: stamp the store parameters
    // into every replica's engine config (key policy, hit latency) and,
    // in shared mode, build the one fleet store they will all reference.
    ResultCacheConfig store_cfg = cfg_.cache.config;
    store_cfg.enabled = true;
    for (ReplicaConfig& rep : cfg_.replicas) rep.engine.cache = store_cfg;
    if (cfg_.cache.mode == ClusterCacheMode::kShared) {
      shared_cache_ = std::make_shared<ResultCache>(store_cfg);
    }
  }
  replicas_.reserve(cfg_.replicas.size());
  for (std::size_t i = 0; i < cfg_.replicas.size(); ++i) {
    replicas_.push_back(
        std::make_unique<Replica>(model_, cfg_.replicas[i], i, shared_cache_));
  }
  offers_.resize(replicas_.size());
  offer_global_.resize(replicas_.size());
  if (cfg_.trace.enabled) {
    // One fleet tracer, tracks laid out replica-major: replica i gets
    // [base, base + workers] (workers first, control lane last), labels
    // prefixed with the replica name so a Perfetto view reads
    // "r0/worker 1".
    fleet_tracer_ = std::make_unique<obs::Tracer>(cfg_.trace);
    std::uint32_t base = 0;
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      replicas_[i]->engine().AttachTracer(fleet_tracer_.get(), base,
                                          replicas_[i]->name() + "/");
      base +=
          static_cast<std::uint32_t>(cfg_.replicas[i].engine.workers) + 1;
    }
  }
}

bool ServingCluster::Push(const TimedRequest& request,
                          std::optional<MatrixF> input) {
  const bool has_input = input.has_value();
  return PushImpl(request, has_input ? std::move(*input) : MatrixF{},
                  has_input);
}

bool ServingCluster::PushImpl(const TimedRequest& request, MatrixF input,
                              bool has_input) {
  if (!std::isfinite(request.arrival_s)) {
    throw std::invalid_argument(
        "ServingCluster::Push: arrival_s must be finite (got " +
        std::to_string(request.arrival_s) + ")");
  }
  if (routing_.offered > 0 && request.arrival_s < last_arrival_) {
    throw std::invalid_argument(
        "ServingCluster::Push: arrivals must be non-decreasing (got " +
        std::to_string(request.arrival_s) + " after " +
        std::to_string(last_arrival_) + ")");
  }
  // Mirror ServingEngine::Push's shape check even in accounting-only mode
  // (where the tensor is dropped): a malformed caller input is a bug
  // either way and must not hide until `execute` is flipped on.
  if (has_input && (input.rows() != request.length ||
                    input.cols() != model_.config().encoder.hidden)) {
    throw std::invalid_argument(
        "ServingCluster::Push: input must be length x hidden (" +
        std::to_string(request.length) + " x " +
        std::to_string(model_.config().encoder.hidden) + "), got " +
        std::to_string(input.rows()) + " x " + std::to_string(input.cols()));
  }
  const std::size_t ordinal = routing_.offered++;
  last_arrival_ = request.arrival_s;

  // Advance every replica to the arrival instant so the router compares
  // like-for-like load signals, then rank.
  std::vector<ReplicaSnapshot> fleet;
  fleet.reserve(replicas_.size());
  for (auto& r : replicas_) fleet.push_back(r->SnapshotAt(request.arrival_s));
  const std::vector<std::size_t> ranked = router_.Rank(request, fleet);

  if (ranked.empty()) {
    ++routing_.rejected;
    ++routing_.unroutable;
    replica_of_.push_back(ClusterResult::npos());
    return false;
  }

  // Offer down the preference order, skipping replicas whose waiting room
  // is already full at this instant (the same admission test the engine
  // itself applies, so the first non-full replica always accepts).
  for (std::size_t rank = 0; rank < ranked.size(); ++rank) {
    const std::size_t idx = ranked[rank];
    const ReplicaSnapshot& snap = fleet[idx];
    // A request this replica's cache would serve (hit) or fold onto an
    // in-flight identical one (coalesce) bypasses the waiting room
    // entirely, so a full queue is no reason to skip it.  The cache
    // probes are only paid once the queue is actually full.
    if (snap.queue_capacity > 0 && snap.queue_depth >= snap.queue_capacity &&
        !replicas_[idx]->WouldHitCache(request, request.arrival_s) &&
        !replicas_[idx]->WouldCoalesce(request)) {
      continue;
    }
    const bool accepted =
        execute_
            ? replicas_[idx]->Offer(
                  request,
                  has_input ? std::move(input)
                            : request.id != kAnonymousId
                                  ? SynthesizeIdentityEmbedding(
                                        cfg_.embed_seed, request.id,
                                        request.length,
                                        model_.config().encoder.hidden)
                                  : SynthesizeRequestEmbedding(
                                        cfg_.embed_seed, ordinal,
                                        request.length,
                                        model_.config().encoder.hidden))
            : replicas_[idx]->Offer(request);
    if (!accepted) {
      // The snapshot said there was room; the engine disagreeing means the
      // two admission tests diverged -- a bug, not a policy outcome.
      throw std::logic_error(
          "ServingCluster::Push: replica \"" + replicas_[idx]->name() +
          "\" rejected a request its snapshot had room for");
    }
    offers_[idx].push_back(request);
    offer_global_[idx].push_back(ordinal);
    replica_of_.push_back(idx);
    ++routing_.admitted;
    if (rank > 0) ++routing_.rerouted;
    return true;
  }

  ++routing_.rejected;
  replica_of_.push_back(ClusterResult::npos());
  return false;
}

ClusterResult ServingCluster::Drain() {
  ClusterResult result;
  result.routing = routing_;
  result.replica_of = std::move(replica_of_);
  result.replica_results.reserve(replicas_.size());
  for (auto& r : replicas_) result.replica_results.push_back(r->Drain());

  // Map per-replica outputs back to cluster Push() ordinals: admitted
  // requests by their offered id, cache-served ones (hits and coalesced
  // followers) from the copies the engines wired up at drain.
  if (execute_) {
    result.outputs.resize(result.routing.offered);
    for (std::size_t r = 0; r < replicas_.size(); ++r) {
      ServingResult& res = result.replica_results[r];
      for (std::size_t i = 0; i < res.outputs.size(); ++i) {
        const std::size_t global = offer_global_[r][res.offered_ids[i]];
        result.outputs[global] = std::move(res.outputs[i]);
      }
      for (CacheServedRequest& served : res.cache_served) {
        const std::size_t global = offer_global_[r][served.offered_id];
        result.outputs[global] = std::move(served.output);
      }
    }
  }

  std::vector<ReplicaDrainView> views;
  views.reserve(replicas_.size());
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    ReplicaDrainView view;
    view.name = replicas_[r]->name();
    view.online = replicas_[r]->online();
    view.workers = replicas_[r]->engine_config().workers;
    view.offers = &offers_[r];
    view.result = &result.replica_results[r];
    view.cache_store = replicas_[r]->engine().cache().get();
    views.push_back(view);
  }
  result.report = BuildClusterReport(views);

  // Align every replica's cache clock to the fleet max so the next
  // stream ages all stores -- and above all a shared one -- on one
  // coherent timeline.
  double epoch = 0;
  for (auto& r : replicas_) {
    epoch = std::max(epoch, r->engine().cache_epoch());
  }
  for (auto& r : replicas_) r->engine().AlignCacheEpoch(epoch);

  ResetStream();
  return result;
}

ClusterResult ServingCluster::Replay(const std::vector<TimedRequest>& trace) {
  for (const TimedRequest& r : trace) Push(r);
  return Drain();
}

void ServingCluster::SetOnline(std::size_t replica, bool online) {
  if (replica >= replicas_.size()) {
    throw std::invalid_argument(
        "ServingCluster::SetOnline: replica index " +
        std::to_string(replica) + " out of range (fleet has " +
        std::to_string(replicas_.size()) + " replicas)");
  }
  replicas_[replica]->set_online(online);
  // Per-replica cache hygiene: an offline replica's private entries no
  // longer represent fleet state (key-affinity remaps its keys to the
  // survivors, which will recompute) -- drop them so a later return to
  // rotation cannot serve stale results.  The shared store is fleet
  // property and survives.
  if (!online && cfg_.cache.mode == ClusterCacheMode::kPerReplica) {
    replicas_[replica]->InvalidateOwnedCache();
  }
}

void ServingCluster::ResetStream() {
  for (auto& offers : offers_) offers.clear();
  for (auto& ids : offer_global_) ids.clear();
  replica_of_.clear();
  last_arrival_ = 0;
  routing_ = ClusterRoutingStats{};
  router_.Reset();
}

}  // namespace latte
