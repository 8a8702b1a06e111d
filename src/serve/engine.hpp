#pragma once
// ServingEngine: the functional, host-side serving front end.
//
// The engine closes the loop the ROADMAP asks for: timestamped requests
// (a replayed Poisson trace or caller-pushed) flow through the shared
// length-aware batch former, formed batches execute for real on the PR-1
// batched runtime (ModelInstance::ForwardBatch over a BatchRunner), and
// the same ServingReport the FPGA simulator produces is accounted in
// virtual time from a deterministic service model.  That split -- real
// tensors for outputs, virtual time for latency -- is what makes a run
// reproducible: the same trace yields bit-identical outputs, batches and
// reports at any BatchRunner thread count.
//
// One state machine serves every configuration.  The engine is a ladder
// of service tiers: a single tier without the adaptive controller, one
// per `adapt.tiers` rung with it.  Each Push first advances one
// virtual-time event loop to the arrival -- batch completions, timeout
// seals, FIFO launches onto the earliest-free worker, controller epochs --
// then resolves the request against the cache, the bounded queue and the
// tier choice, and admits it to its tier's open batch.  Every launch
// prices its batch exactly once and appends launch, completion, service
// time and worker to the stream's DispatchSchedule; Drain() runs the loop
// to quiescence and builds the report from that recorded schedule, so no
// batch is ever re-priced.
//
// Backpressure: with a bounded queue (`queue_capacity` > 0) a request is
// rejected when the waiting room -- admitted requests whose batch has not
// yet launched -- is full at its arrival.  Admission is decided in virtual
// time by the same loop the report comes from, so rejection counts are
// deterministic too.
//
// Result cache (`cfg.cache.enabled`): an optional, capacity-bounded
// request-result cache sits *in front of* batch forming.  At Push, a
// cacheable request (one with a content key under the configured policy)
// resolves to exactly one of three disjoint outcomes:
//   * hit       -- a live entry exists: served at arrival + hit_latency_s,
//                  bypassing admission, the bounded queue and the token
//                  budget entirely;
//   * coalesced -- an identical request is admitted but its batch has not
//                  completed in virtual time: attach as a follower and
//                  complete with the leader (one execution, N responses);
//   * miss      -- admitted normally as the leader for its key; when its
//                  batch completes in virtual time the entry becomes
//                  visible, and the tensor is materialized at Drain().
// Everything the cache decides -- hits, TTL expiry, LRU/SLRU eviction --
// runs on the same virtual clock as dispatch, so cached runs keep the
// engine's determinism contract: outputs are bit-exact against an
// uncached engine executing the deduplicated request set, and
// accounting-only replays are byte-identical at any thread count.  The
// virtual clock continues across streams (Drain() advances an epoch
// offset by the stream's span), so entries age as if streams were played
// back to back.

#include <memory>
#include <optional>
#include <utility>

#include "adapt/controller.hpp"
#include "cache/coalesce.hpp"
#include "cache/store.hpp"
#include "config/check.hpp"
#include "model/inference.hpp"
#include "obs/trace.hpp"
#include "serve/dispatch.hpp"
#include "serve/shard_service.hpp"

namespace latte {

/// How the virtual backend slots behind `workers` execute a batch.
enum class BackendMode {
  /// Each worker is an independent replica serving whole batches -- the
  /// pre-sharding behavior and the default.
  kReplicated,
  /// Each worker is a gang of `shard.degree` tensor-parallel shards: one
  /// batch occupies the whole gang, its service time shrunk to the
  /// ShardPlan compute share plus interconnect collectives
  /// (MakeShardedServiceModel wraps the configured service model at
  /// construction).  The functional datapath is unchanged: sharding is
  /// priced, not executed, so outputs are the ones EncoderForward
  /// computes and cannot depend on the backend mode.
  kSharded,
};

/// Serving engine knobs.
struct ServingEngineConfig {
  BatchFormerConfig former;     ///< continuous batch forming policy
  std::size_t workers = 1;      ///< virtual backend slots (latency model)
  std::size_t threads = 1;      ///< BatchRunner threads (0 = hardware)
  std::size_t queue_capacity = 0;  ///< waiting-room bound; 0 = unbounded
  InferenceConfig inference;    ///< functional datapath per sequence
  std::uint64_t embed_seed = 1;    ///< synthesized request embeddings
  /// Run the functional datapath at Drain().  false = accounting only:
  /// batches, admission and the virtual-time report are produced as usual
  /// but no tensors are computed and `ServingResult::outputs` stays empty
  /// -- the mode cluster-level policy sweeps use, where only the
  /// deterministic virtual-time numbers matter.
  bool execute = true;
  /// Deterministic per-batch service time for the virtual-time report;
  /// empty picks a token-linear default.  Build a kAccelerator
  /// ServiceModelSpec (serve/service_model.hpp) to account exactly like
  /// the performance twin.
  BatchServiceModel service;
  /// Request-result cache in front of batch forming (disabled by
  /// default).  A cluster may override this with a fleet-shared store.
  ResultCacheConfig cache;
  /// Backend execution mode; kSharded turns every worker slot into a
  /// tensor-parallel gang priced through `shard`.
  BackendMode backend = BackendMode::kReplicated;
  /// Gang shape and interconnect cost; read only when backend ==
  /// BackendMode::kSharded.
  ShardServiceConfig shard;
  /// SLO-driven admission/degradation layer (adapt/controller.hpp).
  /// Disabled by default; when enabled the engine forms per-tier batches,
  /// escalates uncertain cheap-tier results to tier 0 and sheds only as a
  /// last resort.  Incompatible with the result cache.
  AdaptiveServingConfig adapt;
  /// Per-tier service models, parallel to `adapt.tiers` (build with
  /// BuildTierServiceModels, serve/service_model.hpp).  Empty = every tier
  /// priced by `service` (accounting-neutral degradation; useful in
  /// tests).  Read only when `adapt.enabled`.
  std::vector<BatchServiceModel> tier_services;
  /// Request-lifecycle tracing (obs/trace.hpp).  Disabled by default; the
  /// disabled path costs one pointer check per instrumentation site and
  /// leaves every output and report bit-exact vs a pre-obs engine.
  obs::TraceConfig trace;
};

/// Names every illegal field (nested former/cache/shard issues carry
/// dot-path prefixes); empty means legal.
ConfigIssues CheckServingEngineConfig(const ServingEngineConfig& cfg);

/// The input embedding the engine synthesizes for a request pushed without
/// one: a function of (base_seed, Push ordinal, length) alone, so request
/// identity -- never batching, rejections or routing -- determines the
/// tensor.  Exposed so a multi-replica cluster can synthesize the exact
/// embedding a single engine would have used for the same offered ordinal.
MatrixF SynthesizeRequestEmbedding(std::uint64_t base_seed,
                                   std::size_t ordinal, std::size_t length,
                                   std::size_t hidden);

/// Same, for a request that carries a content identity
/// (TimedRequest::id != kAnonymousId): the tensor is a function of
/// (base_seed, id, length) alone, so every request sharing an id carries
/// byte-identical content -- the invariant the result cache's bit-exact
/// contract rests on.  Uses a different seed mixing than the ordinal
/// path, so id spaces and ordinal spaces never alias.
MatrixF SynthesizeIdentityEmbedding(std::uint64_t base_seed, std::uint64_t id,
                                    std::size_t length, std::size_t hidden);

/// Admission accounting under backpressure.  With a cache in front,
/// offered counts every Push() while accepted/rejected only cover the
/// misses that reached admission: offered = accepted + rejected + hits +
/// coalesced + (cache-disabled: 0).
struct AdmissionStats {
  std::size_t offered = 0;     ///< Push() calls
  std::size_t accepted = 0;    ///< admitted to the queue
  std::size_t rejected = 0;    ///< bounced by the bounded queue
  std::size_t peak_queue = 0;  ///< max waiting-room occupancy observed
};

/// One request served from the cache layer instead of a batch: a hit on a
/// live entry, or a follower coalesced onto an in-flight leader.
struct CacheServedRequest {
  std::size_t offered_id = 0;  ///< Push() ordinal
  double arrival_s = 0;
  double done_s = 0;    ///< virtual completion (hit: arrival + hit latency;
                        ///< follower: its leader's batch completion)
  bool coalesced = false;  ///< false = cache hit, true = follower
  std::size_t length = 0;
  /// Admitted index (into this stream) whose output serves this request,
  /// or npos() when `output` was copied straight from a materialized
  /// entry at Push time.
  std::size_t leader_admitted = static_cast<std::size_t>(-1);
  MatrixF output;  ///< filled at Drain() in execute mode

  static constexpr std::size_t npos() { return static_cast<std::size_t>(-1); }
};

/// Everything one serving run produces.
struct ServingResult {
  DispatchSchedule schedule;         ///< virtual-time report + batch times
  AdmissionStats admission;
  std::vector<FormedBatch> batches;  ///< indices into admitted order
  std::vector<MatrixF> outputs;      ///< one per admitted request
  std::vector<std::size_t> offered_ids;  ///< admitted -> Push() ordinal
  /// Hits and coalesced followers (empty when the cache is disabled), in
  /// the order their completions were recorded: hits at their arrival,
  /// followers at their leader's batch completion -- NOT Push order.
  /// Match entries to requests via `offered_id`.  Their latencies are
  /// pooled into report() alongside the admitted requests'.
  std::vector<CacheServedRequest> cache_served;
  CacheStats cache;   ///< lookup outcomes + store snapshot at Drain()
  /// Adaptive runs only (empty otherwise), parallel to the admitted
  /// order: the tier each entry's batch was formed at, and whether the
  /// entry is a superseded first pass (its escalated re-run at tier 0 is
  /// a later entry sharing its offered_id).
  std::vector<std::size_t> request_tiers;
  std::vector<std::uint8_t> superseded;
  double wall_s = 0;  ///< measured wall-clock of functional execution

  /// With the cache enabled this is the *pooled* report: admitted, hit
  /// and coalesced requests all contribute their virtual-time latencies
  /// (mean_batch_size stays requests/batches, so it exceeds the formed
  /// batch sizes when hits are served without forming anything).
  const ServingReport& report() const { return schedule.report; }
};

/// Streaming serving engine over a materialized model.
///
/// The model must outlive the engine.  Usage: Push() requests in arrival
/// order (or Replay() a whole trace), then Drain() to execute and collect
/// the result; Drain() resets the engine for the next run (the cache and
/// its virtual clock persist across runs).
class ServingEngine {
 public:
  /// `shared_cache` overrides the engine-owned store (the cluster's
  /// fleet-shared mode); when given, cfg.cache must be enabled and
  /// supplies the key policy and hit latency while the store's own
  /// config governs capacity/TTL/eviction.
  ServingEngine(const ModelInstance& model, const ServingEngineConfig& cfg,
                std::shared_ptr<ResultCache> shared_cache = nullptr);

  /// Offers a request.  With an input embedding (request.length x hidden)
  /// the engine serves that tensor; without one the embedding is
  /// synthesized from (embed_seed, Push ordinal) -- or from
  /// (embed_seed, id) when the request carries a content identity.
  /// Returns false when the bounded queue rejects (adaptive: sheds) it.
  /// Arrivals must be finite and non-decreasing in time; otherwise Push
  /// throws std::invalid_argument.
  bool Push(const TimedRequest& request,
            std::optional<MatrixF> input = std::nullopt);

  /// Seals the trailing batch, executes every formed batch on the batched
  /// runtime and returns outputs plus the virtual-time report.  The
  /// engine is empty afterwards and can serve the next stream.
  ServingResult Drain();

  /// Push() + Drain() over a whole trace.
  ServingResult Replay(const std::vector<TimedRequest>& trace);

  /// Admission counters for the stream currently being offered.
  const AdmissionStats& admission() const { return admission_; }

  /// Current waiting-room occupancy (admitted, batch not yet launched).
  std::size_t queue_depth() const { return admitted_.size() - launched_; }

  /// Tokens admitted but not yet completed in virtual time: the waiting
  /// room plus batches still in service.  The load signal
  /// least-outstanding-token routing balances on.
  std::size_t outstanding_tokens() const {
    return waiting_tokens_ + in_service_tokens_;
  }

  /// Current degradation level of the adaptive controller (0 = full
  /// quality, and always 0 when the adaptive layer is disabled).  Routers
  /// use this to prefer less-degraded replicas.
  std::size_t service_level() const {
    return controller_ ? controller_->level() : 0;
  }

  /// Advances virtual time to `now` without offering a request: seals a
  /// timed-out open batch, launches sealed batches whose dispatch time has
  /// passed and retires completed ones.  Routers call this on every
  /// replica before reading queue_depth() / outstanding_tokens(), so load
  /// signals are comparable across replicas at the arrival instant.
  /// Idempotent; a `now` earlier than the last observed time is a no-op.
  /// With a cache, completed batches also publish their entries here, so
  /// repeats arriving after a leader's virtual completion hit.
  void AdvanceTo(double now);

  /// Whether a Push() of `request` at `now` would be served from the
  /// cache (a live entry exists; routers use this to bypass the
  /// queue-full skip for hits).  Non-mutating.  Conservative false for
  /// requests whose key needs a tensor the router does not have
  /// (kEmbeddingHash without an id), and in execute mode for entries
  /// still owing their tensor to another engine.
  bool WouldHitCache(const TimedRequest& request, double now) const;

  /// Whether a Push() of `request` would attach as a coalesced follower
  /// (an identical request is admitted here and still in flight).
  /// Followers, like hits, never occupy the waiting room.
  bool WouldCoalesce(const TimedRequest& request) const;

  /// The engine's cache store (null when disabled); shared across
  /// replicas in the cluster's fleet-shared mode.
  const std::shared_ptr<ResultCache>& cache() const { return cache_; }

  /// True when the store came from outside (fleet-shared) rather than
  /// being engine-owned.
  bool cache_is_shared() const { return cache_shared_; }

  /// Drops every entry of an engine-*owned* cache (failover
  /// invalidation); a shared store is left untouched -- its entries
  /// belong to the fleet, not this engine.
  void InvalidateOwnedCache();

  /// Virtual-clock offset accumulated over drained streams (entries age
  /// across streams as if they were played back to back).
  double cache_epoch() const { return cache_epoch_; }

  /// Fast-forwards the cache clock (never backwards).  The cluster aligns
  /// every replica to the fleet-max epoch after a drain so a shared
  /// store sees one coherent timeline.
  void AlignCacheEpoch(double epoch);

  /// Points the engine at an externally owned tracer (the cluster's
  /// fleet tracer), recording on tracks [track_base, track_base + workers]
  /// -- one per virtual worker slot plus a control lane.  Track labels get
  /// `label_prefix` prepended ("r0/worker 1").  Null detaches.  Replaces
  /// the engine-owned tracer cfg.trace.enabled would have created.
  void AttachTracer(obs::Tracer* tracer, std::uint32_t track_base,
                    std::string_view label_prefix = {});

  /// The active tracer (engine-owned or attached); null when disabled.
  obs::Tracer* tracer() const { return tracer_; }

  /// The batched execution runtime, for pool-health metrics export.
  const BatchRunner& runner() const { return runner_; }

 private:
  CacheKey KeyFor(const TimedRequest& request, const MatrixF& input) const;
  /// Cache step of Push: true when the request was served as a hit or
  /// attached as a coalesced follower; otherwise `key` is its miss key.
  bool ServeFromCache(const TimedRequest& request, const MatrixF& input,
                      std::size_t ordinal, CacheKey& key);
  /// The controller's level clamped by the accuracy budget (0 without a
  /// controller).
  std::size_t PickTier() const;
  /// The embedding Drain() executes for a request pushed without one.
  MatrixF SynthesizeInput(const TimedRequest& request,
                          std::size_t ordinal) const;
  void AdmitToTier(std::size_t tier, const TimedRequest& request,
                   MatrixF input, std::size_t ordinal, double root_arrival,
                   bool escalate, CacheKey key);
  void SealOpenTier(std::size_t tier, BatchSeal seal, double ready_s);
  /// The engine's one virtual-time event loop: batch completions, timeout
  /// seals, FIFO launches onto the earliest-free worker and controller
  /// epochs, strictly in time order up to `now` (ties: completions, seals,
  /// launches, epochs).  A timeout seal fires only once its deadline is
  /// strictly before `now` -- an arrival exactly at the deadline still
  /// joins, as in FormBatches.  In drain mode it runs to quiescence
  /// instead (epochs fire only while real work remains).
  void RunEvents(double now, bool drain);
  void LaunchNext(double launch_s);
  void CompleteBatch(std::size_t batch, double done_s);
  void CompleteAdmitted(std::size_t idx, double done_s);
  void ResetStream();

  // Tracing (all no-ops when tracer_ is null).
  std::uint32_t control_track() const {
    return track_base_ + static_cast<std::uint32_t>(cfg_.workers);
  }
  void RecordInstant(obs::SpanKind kind, double t, std::uint64_t id,
                     std::int64_t arg);
  void RecordSpan(obs::SpanKind kind, double begin_s, double end_s,
                  std::uint64_t id, std::int64_t arg, std::uint32_t track);
  /// Drain-time pass: per-request queue-wait spans and completion
  /// instants on the control track, per-batch service spans on the
  /// worker track the earliest-free recurrence picked.
  void EmitScheduleSpans(const DispatchSchedule& sched);

  const ModelInstance& model_;
  ServingEngineConfig cfg_;
  BatchRunner runner_;

  // Tracing (null when disabled; owned unless a cluster attached one).
  std::unique_ptr<obs::Tracer> owned_tracer_;
  obs::Tracer* tracer_ = nullptr;
  std::uint32_t track_base_ = 0;

  // Service ladder: one tier without a controller, one per adapt tier
  // with it.  Every batch is priced once, by its tier's model, at launch.
  std::optional<AdaptiveController> controller_;
  std::vector<BatchServiceModel> tier_services_;  ///< resolved per tier
  /// Collectives term of the sharded backend's price, for attributing
  /// each sharded batch's interconnect tail as its own trace sub-span.
  /// Empty unless backend == kSharded.
  BatchServiceModel shard_comm_;

  // Stream state (virtual time).  Per-request vectors are parallel to
  // admitted_.
  std::vector<TimedRequest> admitted_;
  std::vector<MatrixF> inputs_;
  std::vector<std::size_t> offered_ids_;
  std::vector<CacheKey> admitted_keys_;      ///< kNullCacheKey = uncached
  std::vector<std::size_t> tier_of_;
  std::vector<double> root_arrival_;         ///< original arrival (escalation)
  std::vector<std::uint8_t> superseded_;     ///< first pass replaced by re-run
  std::vector<std::uint8_t> escalate_flag_;  ///< probe said: re-run at tier 0
  /// One open batch per tier (tiers interleave, so members are explicit
  /// admitted indices rather than a contiguous range).
  struct OpenTier {
    bool active = false;
    double open_s = 0;
    std::size_t tokens = 0;
    std::vector<std::size_t> members;
  };
  std::vector<OpenTier> open_tiers_;
  std::vector<FormedBatch> sealed_;  ///< incrementally formed
  DispatchSchedule schedule_;        ///< per launched batch, sealed order
  std::vector<double> worker_free_;
  /// Launched batches not yet completed in virtual time:
  /// (done_s, sealed ordinal), processed earliest-first.
  std::vector<std::pair<double, std::size_t>> completions_;
  std::size_t next_launch_ = 0;  ///< first unlaunched sealed batch
  std::size_t launched_ = 0;     ///< admitted requests already launched
  double last_arrival_ = 0;
  AdmissionStats admission_;

  // Token accounting for routing introspection (virtual time).
  std::size_t waiting_tokens_ = 0;     ///< admitted, batch not launched
  std::size_t in_service_tokens_ = 0;  ///< launched, batch not done

  // Cache layer (null/empty when disabled).
  std::shared_ptr<ResultCache> cache_;
  bool cache_shared_ = false;
  InFlightTable inflight_;
  CacheStats cache_stats_;  ///< per-stream engine-side counters
  std::vector<CacheServedRequest> cache_served_;
  double cache_epoch_ = 0;      ///< virtual-clock offset across streams
  double last_completion_ = 0;  ///< latest completion seen this stream

  // Adaptive accounting (touched only with a controller).
  double planned_acc_sum_ = 0;     ///< accuracy-budget numerator
  std::size_t planned_count_ = 0;  ///< accepted requests (denominator)
  std::vector<std::size_t> tier_requests_;   ///< completions per tier
  std::vector<std::size_t> tier_batches_;    ///< batches formed per tier
  std::vector<std::size_t> tier_escalated_;  ///< first passes escalated
};

}  // namespace latte
