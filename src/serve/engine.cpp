#include "serve/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "adapt/escalate.hpp"
#include "obs/percentiles.hpp"
#include "serve/service_model.hpp"
#include "workload/synthetic.hpp"

namespace latte {

MatrixF SynthesizeRequestEmbedding(std::uint64_t base_seed,
                                   std::size_t ordinal, std::size_t length,
                                   std::size_t hidden) {
  // Distinct, well-mixed seed per Push() ordinal so request embeddings are
  // a function of request identity alone (rejections and batch composition
  // do not disturb them).
  Rng rng(base_seed +
          0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(ordinal) + 1));
  return MakeInputEmbedding(rng, length, hidden);
}

MatrixF SynthesizeIdentityEmbedding(std::uint64_t base_seed, std::uint64_t id,
                                    std::size_t length, std::size_t hidden) {
  // A different mixing shape than the ordinal path (the id is folded
  // through MixHash64 first), so an id can never collide with an ordinal
  // seed and produce accidentally-shared content across the two schemes.
  Rng rng(base_seed ^ MixHash64(id ^ 0x5851f42d4c957f2dULL));
  return MakeInputEmbedding(rng, length, hidden);
}

MatrixF SynthesizeInputEmbedding(std::uint64_t base_seed,
                                 const TimedRequest& request,
                                 std::size_t ordinal, std::size_t hidden) {
  return request.id != kAnonymousId
             ? SynthesizeIdentityEmbedding(base_seed, request.id,
                                           request.length, hidden)
             : SynthesizeRequestEmbedding(base_seed, ordinal, request.length,
                                          hidden);
}

ConfigIssues CheckServingEngineConfig(const ServingEngineConfig& cfg) {
  ConfigIssues issues;
  MergePrefixed(issues, "former", CheckBatchFormerConfig(cfg.former));
  if (cfg.workers == 0) {
    AddIssue(issues, "workers",
             "must be >= 1 (no backend slot to account against)");
  }
  if (cfg.execute && cfg.inference.mode != InferenceMode::kDenseFloat &&
      cfg.inference.mode != InferenceMode::kDenseInt8 &&
      cfg.inference.sparse.top_k == 0) {
    AddIssue(issues, "inference.sparse.top_k",
             "must be >= 1 for the sparse execution modes (0 selects no "
             "attention candidates)");
  }
  if (cfg.cache.enabled) {
    MergePrefixed(issues, "cache", CheckResultCacheConfig(cfg.cache));
  }
  if (cfg.backend == BackendMode::kSharded) {
    MergePrefixed(issues, "shard", CheckShardServiceConfig(cfg.shard));
  }
  if (cfg.trace.enabled) {
    MergePrefixed(issues, "trace", obs::CheckTraceConfig(cfg.trace));
  }
  if (cfg.adapt.enabled) {
    MergePrefixed(issues, "adapt", CheckAdaptiveServingConfig(cfg.adapt));
    if (cfg.cache.enabled) {
      AddIssue(issues, "adapt.enabled",
               "cannot combine the adaptive layer with the result cache "
               "(a cached result's tier is unknowable; pick one)");
    }
    if (!cfg.adapt.tiers.empty() &&
        cfg.inference.mode != InferenceMode::kDenseFloat &&
        cfg.inference.mode != InferenceMode::kDenseInt8 &&
        cfg.adapt.tiers[0].top_k != cfg.inference.sparse.top_k) {
      AddIssue(issues, "adapt.tiers[0].top_k",
               "must equal inference.sparse.top_k (" +
                   std::to_string(cfg.inference.sparse.top_k) +
                   ") -- tier 0 is the full-quality service, and escalated "
                   "re-runs must be bit-exact against it");
    }
    if (!cfg.tier_services.empty() &&
        cfg.tier_services.size() != cfg.adapt.tiers.size()) {
      AddIssue(issues, "tier_services",
               "must be empty (uniform pricing) or name one service model "
               "per adapt tier (got " +
                   std::to_string(cfg.tier_services.size()) + " for " +
                   std::to_string(cfg.adapt.tiers.size()) + " tiers)");
    }
  }
  return issues;
}

ServingEngine::ServingEngine(const ModelInstance& model,
                             const ServingEngineConfig& cfg,
                             std::shared_ptr<ResultCache> shared_cache)
    : model_(model), cfg_(cfg), runner_(cfg.threads) {
  ThrowOnIssues("ServingEngineConfig", CheckServingEngineConfig(cfg_));
  if (!cfg_.service) {
    // The spec's default, ~0.5 M tokens/s plus a fixed dispatch cost: a
    // plausible host-side price; build a kAccelerator ServiceModelSpec to
    // account like the simulator.
    cfg_.service = BuildServiceModel(ServiceModelSpec{});
  }
  // The service ladder: one tier priced by `service` without a
  // controller, the adapt tiers (uniformly priced unless tier_services
  // names one model each) with it.
  const std::size_t tiers = cfg_.adapt.enabled ? cfg_.adapt.tiers.size() : 1;
  tier_services_ = cfg_.adapt.enabled && !cfg_.tier_services.empty()
                       ? cfg_.tier_services
                       : std::vector<BatchServiceModel>(tiers, cfg_.service);
  if (cfg_.backend == BackendMode::kSharded) {
    // Each worker slot is a gang: wrap every tier's model with the
    // tensor-parallel compute share and the interconnect collectives.
    // Throws if the plan does not fit the model's encoder shape.
    for (BatchServiceModel& tier_service : tier_services_) {
      tier_service = MakeShardedServiceModel(std::move(tier_service),
                                             model.config(), cfg_.shard);
    }
    shard_comm_ = MakeShardCommModel(model.config(), cfg_.shard);
  }
  if (cfg_.adapt.enabled) controller_.emplace(cfg_.adapt);
  open_tiers_.resize(tiers);
  ResetStream();
  if (shared_cache != nullptr) {
    if (!cfg_.cache.enabled) {
      throw std::invalid_argument(
          "ServingEngine: a shared cache store was supplied but cfg.cache "
          "is disabled (enable it to define the key policy and hit "
          "latency)");
    }
    cache_ = std::move(shared_cache);
    cache_shared_ = true;
  } else if (cfg_.cache.enabled) {
    cache_ = std::make_shared<ResultCache>(cfg_.cache);
  }
  if (cfg_.trace.enabled) {
    owned_tracer_ = std::make_unique<obs::Tracer>(cfg_.trace);
    AttachTracer(owned_tracer_.get(), /*track_base=*/0);
  }
}

void ServingEngine::AttachTracer(obs::Tracer* tracer, std::uint32_t track_base,
                                 std::string_view label_prefix) {
  if (owned_tracer_ != nullptr && tracer != owned_tracer_.get()) {
    owned_tracer_.reset();
  }
  tracer_ = tracer;
  track_base_ = track_base;
  if (controller_) controller_->SetTracer(nullptr, 0);
  if (tracer_ == nullptr) return;
  const std::string prefix(label_prefix);
  for (std::size_t w = 0; w < cfg_.workers; ++w) {
    tracer_->RegisterTrack(track_base_ + static_cast<std::uint32_t>(w),
                           prefix + "worker " + std::to_string(w));
  }
  tracer_->RegisterTrack(control_track(), prefix + "control");
  if (controller_) controller_->SetTracer(tracer_, control_track());
}

void ServingEngine::RecordInstant(obs::SpanKind kind, double t,
                                  std::uint64_t id, std::int64_t arg) {
  RecordSpan(kind, t, t, id, arg, control_track());
}

void ServingEngine::RecordSpan(obs::SpanKind kind, double begin_s,
                               double end_s, std::uint64_t id,
                               std::int64_t arg, std::uint32_t track) {
  obs::TraceEvent e;
  e.kind = kind;
  e.begin_s = begin_s;
  e.end_s = end_s;
  e.id = id;
  e.arg = arg;
  e.track = track;
  tracer_->Record(e);
}

void ServingEngine::EmitScheduleSpans(const DispatchSchedule& sched) {
  for (std::size_t b = 0; b < sealed_.size(); ++b) {
    const FormedBatch& batch = sealed_[b];
    const double launch = sched.launch_s[b];
    const double done = sched.done_s[b];
    for (std::size_t idx : batch.indices) {
      RecordSpan(obs::SpanKind::kQueueWait, admitted_[idx].arrival_s, launch,
                 offered_ids_[idx], static_cast<std::int64_t>(b),
                 control_track());
    }
    // The batch itself lands on the worker slot the earliest-free
    // recurrence picked -- the same attribution at any thread count.
    const std::int64_t arg =
        controller_ ? static_cast<std::int64_t>(batch.tier)
                    : static_cast<std::int64_t>(batch.indices.size());
    const std::uint32_t worker_track =
        track_base_ + static_cast<std::uint32_t>(sched.worker_of[b]);
    RecordSpan(obs::SpanKind::kService, launch, done, b, arg, worker_track);
    if (shard_comm_) {
      // Attribute the gang's interconnect tail: the sharded price is
      // base * share + comm, so the collectives occupy the last `comm`
      // seconds of the service span (clamped against rounding when the
      // compute share is negligible).  Zero for batches the min-length
      // guard left unsharded.
      const double comm_s = shard_comm_(BatchLengths(admitted_, batch));
      if (comm_s > 0) {
        RecordSpan(obs::SpanKind::kStage, std::max(launch, done - comm_s),
                   done, b, static_cast<std::int64_t>(cfg_.shard.degree),
                   worker_track);
      }
    }
    for (std::size_t idx : batch.indices) {
      if (superseded_[idx] != 0) continue;
      RecordInstant(obs::SpanKind::kComplete, done, offered_ids_[idx],
                    static_cast<std::int64_t>(b));
    }
  }
}

CacheKey ServingEngine::KeyFor(const TimedRequest& request,
                               const MatrixF& input) const {
  switch (cfg_.cache.key_policy) {
    case CacheKeyPolicy::kRequestId:
      return request.id == kAnonymousId
                 ? kNullCacheKey
                 : RequestIdKey(request.id, request.length);
    case CacheKeyPolicy::kEmbeddingHash:
      // Content-address the tensor when it is in hand; id-carrying
      // requests without one are keyed by identity (their content is a
      // pure function of it); anonymous tensor-less requests have no
      // derivable content and bypass the cache.
      if (!input.empty()) return EmbeddingKey(input, request.length);
      return request.id == kAnonymousId
                 ? kNullCacheKey
                 : RequestIdKey(request.id, request.length);
  }
  return kNullCacheKey;
}

bool ServingEngine::Push(const TimedRequest& request,
                         std::optional<MatrixF> input) {
  if (!std::isfinite(request.arrival_s)) {
    throw std::invalid_argument(
        "ServingEngine::Push: arrival_s must be finite (got " +
        std::to_string(request.arrival_s) + ")");
  }
  if (input.has_value() &&
      (input->rows() != request.length ||
       input->cols() != model_.config().encoder.hidden)) {
    throw std::invalid_argument(
        "ServingEngine::Push: input must be length x hidden (" +
        std::to_string(request.length) + " x " +
        std::to_string(model_.config().encoder.hidden) + "), got " +
        std::to_string(input->rows()) + " x " +
        std::to_string(input->cols()));
  }
  if (admission_.offered > 0 && request.arrival_s < last_arrival_) {
    throw std::invalid_argument(
        "ServingEngine::Push: arrivals must be non-decreasing (got " +
        std::to_string(request.arrival_s) + " after " +
        std::to_string(last_arrival_) + ")");
  }
  const std::size_t ordinal = admission_.offered++;
  last_arrival_ = request.arrival_s;
  MatrixF x = input.has_value() ? std::move(*input) : MatrixF{};

  AdvanceTo(request.arrival_s);

  CacheKey key = kNullCacheKey;
  if (cache_ != nullptr && ServeFromCache(request, x, ordinal, key)) {
    return true;
  }

  const std::size_t waiting = queue_depth();
  if (cfg_.queue_capacity > 0 && waiting >= cfg_.queue_capacity) {
    ++admission_.rejected;  // with a controller: the ladder's last resort
    if (tracer_ != nullptr) {
      RecordInstant(obs::SpanKind::kReject, request.arrival_s, ordinal,
                    static_cast<std::int64_t>(waiting));
    }
    return false;
  }

  const std::size_t tier = PickTier();
  bool escalate = false;
  if (controller_ && cfg_.adapt.tiers[tier].escalate) {
    // Probe on the exact embedding Drain() would execute (provided, or
    // synthesized from request identity), so accounting-only and execute
    // runs of the same stream make identical escalation decisions.  An
    // execute-mode engine keeps a synthesized input for Drain(); an
    // accounting-only one holds no tensors.
    const bool synthesized = x.empty();
    if (synthesized) {
      x = SynthesizeInputEmbedding(cfg_.embed_seed, request, ordinal,
                                   model_.config().encoder.hidden);
    }
    const EscalationProbe probe = ProbeSelectorMargin(
        x, model_, cfg_.adapt.tiers[tier].top_k, cfg_.adapt.escalate_bits,
        cfg_.adapt.escalate_rows);
    escalate = ShouldEscalate(probe, cfg_.adapt.escalate_margin);
    if (synthesized && !cfg_.execute) x = MatrixF{};
  }
  ++admission_.accepted;
  admission_.peak_queue = std::max(admission_.peak_queue, waiting + 1);
  if (controller_) {
    planned_acc_sum_ += cfg_.adapt.tiers[tier].accuracy;
    ++planned_count_;
  }
  AdmitToTier(tier, request, std::move(x), ordinal, request.arrival_s,
              escalate, key);
  return true;
}

bool ServingEngine::ServeFromCache(const TimedRequest& request,
                                   const MatrixF& input, std::size_t ordinal,
                                   CacheKey& key) {
  key = KeyFor(request, input);
  if (key == kNullCacheKey) {
    ++cache_stats_.bypassed;
    return false;
  }
  ++cache_stats_.lookups;
  const CacheEntry* entry =
      cache_->Lookup(key, cache_epoch_ + request.arrival_s);
  // An entry still owing its tensor to *another* engine (shared store,
  // cross-replica) cannot serve a functional hit: the value does not
  // exist anywhere yet.  Accounting-only mode has no tensors to hand over,
  // so the entry's visibility alone suffices.
  if (entry != nullptr &&
      !(cfg_.execute && entry->pending() && entry->producer_owner != this)) {
    ++cache_stats_.hits;
    CacheServedRequest served;
    served.offered_id = ordinal;
    served.arrival_s = request.arrival_s;
    served.done_s = request.arrival_s + cfg_.cache.hit_latency_s;
    served.length = request.length;
    if (entry->pending()) {
      if (entry->producer_owner == this) {
        served.leader_admitted = entry->pending_producer;
      }
    } else if (cfg_.execute) {
      served.output = entry->value;  // copy now: eviction-safe
    }
    last_completion_ = std::max(last_completion_, served.done_s);
    if (tracer_ != nullptr) {
      RecordSpan(obs::SpanKind::kCacheHit, served.arrival_s, served.done_s,
                 ordinal, static_cast<std::int64_t>(request.length),
                 control_track());
    }
    cache_served_.push_back(std::move(served));
    return true;
  }
  if (inflight_.Attach(key, ordinal, request.arrival_s, request.length)) {
    ++cache_stats_.coalesced;
    return true;
  }
  ++cache_stats_.misses;
  return false;
}

std::size_t ServingEngine::PickTier() const {
  if (!controller_) return 0;
  const auto& tiers = cfg_.adapt.tiers;
  // The controller proposes its current level; the accuracy budget caps
  // it: degrade only while the planned stream mean stays at the floor.
  std::size_t tier = std::min(controller_->level(), tiers.size() - 1);
  while (tier > 0 &&
         planned_acc_sum_ + tiers[tier].accuracy <
             cfg_.adapt.accuracy_floor *
                 static_cast<double>(planned_count_ + 1)) {
    --tier;
  }
  return tier;
}

void ServingEngine::AdmitToTier(std::size_t tier, const TimedRequest& request,
                                MatrixF input, std::size_t ordinal,
                                double root_arrival, bool escalate,
                                CacheKey key) {
  waiting_tokens_ += request.length;
  if (tracer_ != nullptr) {
    RecordInstant(obs::SpanKind::kAdmit, request.arrival_s, ordinal,
                  static_cast<std::int64_t>(controller_ ? tier
                                                        : request.length));
  }
  // Forming, per tier, mirrors FormBatches: a token-budget overflow seals
  // the open batch at this arrival and the request starts the next batch;
  // the first member of a batch is always admitted, however long.
  OpenTier& ot = open_tiers_[tier];
  if (ot.active && cfg_.former.max_tokens > 0 &&
      ot.tokens + request.length > cfg_.former.max_tokens) {
    SealOpenTier(tier, BatchSeal::kTokenBudget, request.arrival_s);
  }
  if (!ot.active) {
    ot.active = true;
    ot.open_s = request.arrival_s;
    ot.tokens = 0;
    ot.members.clear();
  }
  admitted_.push_back(request);
  inputs_.push_back(std::move(input));
  offered_ids_.push_back(ordinal);
  admitted_keys_.push_back(key);
  if (key != kNullCacheKey) inflight_.Lead(key);
  tier_of_.push_back(tier);
  root_arrival_.push_back(root_arrival);
  superseded_.push_back(0);
  escalate_flag_.push_back(escalate ? 1 : 0);
  ot.members.push_back(admitted_.size() - 1);
  ot.tokens += request.length;
  if (ot.members.size() >= cfg_.former.max_batch) {
    SealOpenTier(tier, BatchSeal::kCapacity, request.arrival_s);
  }
}

void ServingEngine::SealOpenTier(std::size_t tier, BatchSeal seal,
                                 double ready_s) {
  OpenTier& ot = open_tiers_[tier];
  FormedBatch b;
  b.open_s = ot.open_s;
  b.ready_s = ready_s;
  b.tokens = ot.tokens;
  b.seal = seal;
  b.tier = tier;
  b.indices = std::move(ot.members);
  if (cfg_.former.sort_by_length) {
    std::stable_sort(b.indices.begin(), b.indices.end(),
                     [this](std::size_t a, std::size_t c) {
                       return admitted_[a].length > admitted_[c].length;
                     });
  }
  if (tracer_ != nullptr) {
    RecordSpan(obs::SpanKind::kForm, b.open_s, b.ready_s, sealed_.size(),
               static_cast<std::int64_t>(seal), control_track());
  }
  sealed_.push_back(std::move(b));
  ++tier_batches_[tier];
  ot.active = false;
  ot.members = {};
}

void ServingEngine::RunEvents(double now, bool drain) {
  const double kInf = std::numeric_limits<double>::infinity();
  while (true) {
    // Candidate events, each with its earliest instance.
    const auto complete_it =
        std::min_element(completions_.begin(), completions_.end());
    const double t_complete =
        complete_it == completions_.end() ? kInf : complete_it->first;
    double t_seal = kInf;
    std::size_t seal_tier = 0;
    for (std::size_t t = 0; t < open_tiers_.size(); ++t) {
      if (!open_tiers_[t].active) continue;
      const double due = open_tiers_[t].open_s + cfg_.former.timeout_s;
      if (due < t_seal) {
        t_seal = due;
        seal_tier = t;
      }
    }
    if (!drain && !(t_seal < now)) t_seal = kInf;  // arrival joins at due
    double t_launch = kInf;
    if (next_launch_ < sealed_.size()) {
      const double free =
          *std::min_element(worker_free_.begin(), worker_free_.end());
      t_launch = std::max(free, sealed_[next_launch_].ready_s);
    }
    const double t_epoch = controller_ ? controller_->next_epoch_s() : kInf;

    const double t_real = std::min(t_complete, std::min(t_seal, t_launch));
    const double t_next = std::min(t_real, t_epoch);
    if (drain) {
      // Quiescence: once no completion/seal/launch remains, only epoch
      // boundaries are left and the stream is over.
      if (t_real == kInf) break;
    } else if (t_next > now) {
      break;
    }

    // One event per iteration, fixed tie-break: completions first (an
    // escalated re-run must be able to join a batch sealing at the same
    // instant), then seals (lowest tier first), launches, epochs.
    if (t_complete == t_next) {
      const std::size_t batch = complete_it->second;
      completions_.erase(complete_it);
      CompleteBatch(batch, t_complete);
    } else if (t_seal == t_next) {
      SealOpenTier(seal_tier, BatchSeal::kTimeout, t_seal);
    } else if (t_launch == t_next) {
      LaunchNext(t_launch);
    } else {
      controller_->AdvanceEpoch(queue_depth());
    }
  }
}

void ServingEngine::LaunchNext(double launch_s) {
  // FIFO over sealed order onto the earliest-free worker -- the
  // ScheduleFormedBatches recurrence -- pricing the batch exactly once.
  const auto free_it =
      std::min_element(worker_free_.begin(), worker_free_.end());
  const FormedBatch& b = sealed_[next_launch_];
  const double service_s = tier_services_[b.tier](BatchLengths(admitted_, b));
  const double done = launch_s + service_s;
  *free_it = done;
  schedule_.launch_s.push_back(launch_s);
  schedule_.done_s.push_back(done);
  schedule_.service_s.push_back(service_s);
  schedule_.worker_of.push_back(
      static_cast<std::size_t>(free_it - worker_free_.begin()));
  launched_ += b.indices.size();
  waiting_tokens_ -= b.tokens;
  in_service_tokens_ += b.tokens;
  completions_.push_back({done, next_launch_});
  ++next_launch_;
}

void ServingEngine::CompleteBatch(std::size_t batch, double done_s) {
  const std::size_t b_tier = sealed_[batch].tier;
  in_service_tokens_ -= sealed_[batch].tokens;
  // Indexed, not range-for: an escalation re-injection below may seal a
  // batch and grow sealed_.
  for (std::size_t i = 0; i < sealed_[batch].indices.size(); ++i) {
    const std::size_t idx = sealed_[batch].indices[i];
    if (escalate_flag_[idx] != 0) {
      // The cheap first pass was too uncertain: supersede it and re-run
      // at tier 0, arriving at this completion.  Bypasses the bounded
      // queue -- the request was already admitted once.
      superseded_[idx] = 1;
      planned_acc_sum_ +=
          cfg_.adapt.tiers[0].accuracy - cfg_.adapt.tiers[b_tier].accuracy;
      ++tier_escalated_[b_tier];
      if (tracer_ != nullptr) {
        RecordInstant(obs::SpanKind::kEscalate, done_s, offered_ids_[idx],
                      static_cast<std::int64_t>(b_tier));
      }
      TimedRequest rerun = admitted_[idx];
      rerun.arrival_s = done_s;
      AdmitToTier(0, rerun, MatrixF(inputs_[idx]), offered_ids_[idx],
                  root_arrival_[idx], false, kNullCacheKey);
      continue;
    }
    if (controller_) {
      controller_->RecordLatency(done_s - root_arrival_[idx]);
      ++tier_requests_[b_tier];
    }
    if (cache_ != nullptr) CompleteAdmitted(idx, done_s);
  }
}

void ServingEngine::AdvanceTo(double now) { RunEvents(now, /*drain=*/false); }

void ServingEngine::CompleteAdmitted(std::size_t idx, double done_s) {
  // Completions arrive in (done, seal ordinal) order, so a shared store
  // sees one deterministic insertion sequence regardless of how launches
  // interleaved across workers.
  last_completion_ = std::max(last_completion_, done_s);
  const CacheKey key = admitted_keys_[idx];
  if (key == kNullCacheKey) return;
  const std::size_t hidden = model_.config().encoder.hidden;
  cache_->Insert(key,
                 CacheEntryBytes(admitted_[idx].length, hidden,
                                 cache_->config()),
                 cache_epoch_ + done_s, idx, this);
  for (const CoalescedFollower& f : inflight_.Complete(key)) {
    if (tracer_ != nullptr) {
      RecordSpan(obs::SpanKind::kCacheCoalesce, f.arrival_s, done_s,
                 f.offered_id, static_cast<std::int64_t>(idx),
                 control_track());
    }
    CacheServedRequest served;
    served.offered_id = f.offered_id;
    served.arrival_s = f.arrival_s;
    served.done_s = done_s;
    served.coalesced = true;
    served.length = f.length;
    served.leader_admitted = idx;
    cache_served_.push_back(std::move(served));
  }
}

bool ServingEngine::WouldHitCache(const TimedRequest& request,
                                  double now) const {
  if (cache_ == nullptr) return false;
  const CacheKey key = KeyFor(request, MatrixF{});
  if (key == kNullCacheKey) return false;
  const CacheEntry* entry = cache_->Peek(key, cache_epoch_ + now);
  if (entry == nullptr) return false;
  return !(cfg_.execute && entry->pending() &&
           entry->producer_owner != this);
}

bool ServingEngine::WouldCoalesce(const TimedRequest& request) const {
  if (cache_ == nullptr) return false;
  const CacheKey key = KeyFor(request, MatrixF{});
  return key != kNullCacheKey && inflight_.pending(key);
}

void ServingEngine::InvalidateOwnedCache() {
  if (cache_ != nullptr && !cache_shared_) cache_->Clear();
}

void ServingEngine::AlignCacheEpoch(double epoch) {
  cache_epoch_ = std::max(cache_epoch_, epoch);
}

ServingResult ServingEngine::Drain() {
  // Run the stream to quiescence: trailing batches wait out their timers
  // (a streaming former cannot know no more requests are coming), every
  // batch launches and completes, escalations re-inject and settle.
  RunEvents(std::numeric_limits<double>::infinity(), /*drain=*/true);

  ServingResult result;
  result.schedule = std::move(schedule_);
  result.admission = admission_;
  if (tracer_ != nullptr) EmitScheduleSpans(result.schedule);

  // Pooled report over the recorded schedule: each request's latency runs
  // from its root arrival to its final batch's completion (superseded
  // first passes are carried by their re-runs), and cache-served requests
  // add their own virtual completions.
  obs::LatencyPool pool;
  pool.latencies.reserve(admitted_.size() + cache_served_.size());
  double busy_s = 0;
  for (std::size_t b = 0; b < sealed_.size(); ++b) {
    const double done = result.schedule.done_s[b];
    for (std::size_t idx : sealed_[b].indices) {
      if (superseded_[idx] != 0) continue;
      pool.Add(root_arrival_[idx], done);
    }
    pool.ExtendSpan(done);
    busy_s += result.schedule.service_s[b];  // first passes burn real time
  }
  for (const CacheServedRequest& served : cache_served_) {
    pool.Add(served.arrival_s, served.done_s);
  }
  result.schedule.report = BuildServingReport(
      pool.latencies, sealed_.size(), busy_s, pool.span(), cfg_.workers);
  if (controller_) {
    result.schedule.report.mean_accuracy =
        planned_count_ == 0
            ? 1.0
            : planned_acc_sum_ / static_cast<double>(planned_count_);
    result.schedule.report.tiers.resize(cfg_.adapt.tiers.size());
    for (std::size_t t = 0; t < cfg_.adapt.tiers.size(); ++t) {
      TierUsage& usage = result.schedule.report.tiers[t];
      usage.top_k = cfg_.adapt.tiers[t].top_k;
      usage.requests = tier_requests_[t];
      usage.batches = tier_batches_[t];
      usage.escalated = tier_escalated_[t];
      usage.accuracy = cfg_.adapt.tiers[t].accuracy;
    }
  }

  if (cfg_.execute) {
    const std::size_t hidden = model_.config().encoder.hidden;
    for (std::size_t i = 0; i < admitted_.size(); ++i) {
      if (inputs_[i].empty()) {
        inputs_[i] = SynthesizeInputEmbedding(cfg_.embed_seed, admitted_[i],
                                              offered_ids_[i], hidden);
      }
    }
    // Execute every formed batch on the batched runtime, in sealed order,
    // at the batch's tier: only the sparse top_k differs from the base
    // inference config, and tier 0's equals it -- so an escalated re-run
    // is bit-exact against a full-model engine serving the same request.
    // Per-sequence math is bit-identical to a sequential Forward() loop at
    // any thread count (the BatchRunner contract).
    const auto wall0 = std::chrono::steady_clock::now();
    result.outputs.resize(admitted_.size());
    for (const FormedBatch& b : sealed_) {
      InferenceConfig tier_cfg = cfg_.inference;
      if (controller_) tier_cfg.sparse.top_k = cfg_.adapt.tiers[b.tier].top_k;
      std::vector<MatrixF> xs;
      xs.reserve(b.indices.size());
      for (std::size_t idx : b.indices) xs.push_back(std::move(inputs_[idx]));
      auto ys = model_.ForwardBatch(xs, tier_cfg, runner_);
      for (std::size_t i = 0; i < b.indices.size(); ++i) {
        result.outputs[b.indices[i]] = std::move(ys[i]);
      }
    }
    result.wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
            .count();
  }

  if (cache_ != nullptr) {
    if (cfg_.execute) {
      // Hand the computed tensors to the entries this stream produced
      // (entries evicted since their virtual insert are skipped), then
      // wire hit/follower outputs to their leaders'.
      for (const auto& [key, producer] : cache_->PendingOf(this)) {
        cache_->Materialize(key, result.outputs[producer]);
      }
      for (CacheServedRequest& served : cache_served_) {
        if (served.leader_admitted != CacheServedRequest::npos()) {
          served.output = result.outputs[served.leader_admitted];
        }
      }
    }
    result.cache = cache_stats_;
    result.cache.store = cache_->stats();
    result.cache_served = std::move(cache_served_);
    // The cache clock continues across streams: entries age as if the
    // next trace were played back to back with this one.
    cache_epoch_ += std::max(last_completion_, last_arrival_);
  }

  if (controller_) {
    result.request_tiers = std::move(tier_of_);
    result.superseded = std::move(superseded_);
  }
  result.batches = std::move(sealed_);
  result.offered_ids = std::move(offered_ids_);
  ResetStream();
  return result;
}

ServingResult ServingEngine::Replay(const std::vector<TimedRequest>& trace) {
  for (const TimedRequest& r : trace) Push(r);
  return Drain();
}

void ServingEngine::ResetStream() {
  admitted_.clear();
  inputs_.clear();
  offered_ids_.clear();
  admitted_keys_.clear();
  tier_of_.clear();
  root_arrival_.clear();
  superseded_.clear();
  escalate_flag_.clear();
  for (OpenTier& ot : open_tiers_) ot = OpenTier{};
  sealed_.clear();
  schedule_ = DispatchSchedule{};
  worker_free_.assign(cfg_.workers, 0.0);
  completions_.clear();
  next_launch_ = 0;
  launched_ = 0;
  last_arrival_ = 0;
  admission_ = AdmissionStats{};
  waiting_tokens_ = 0;
  in_service_tokens_ = 0;
  inflight_.Clear();
  cache_stats_ = CacheStats{};
  cache_served_.clear();
  last_completion_ = 0;
  if (controller_) controller_->Reset();
  planned_acc_sum_ = 0;
  planned_count_ = 0;
  tier_requests_.assign(open_tiers_.size(), 0);
  tier_batches_.assign(open_tiers_.size(), 0);
  tier_escalated_.assign(open_tiers_.size(), 0);
}

}  // namespace latte
