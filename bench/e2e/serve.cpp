// Serve workloads: the performance twin's virtual-time serving (serve,
// fpga, cache, adapt) on accounting-only engines.  No tensors run, so a
// kernel change must not move these workloads; host time here is the
// simulator's own cost per request.
//
// A run derives several independent sub-traces from --seed and pools
// their requests: one trace's p99 swings by 5-15% from seed to seed, the
// pooled tail by a few percent.  The untraced run replays the sub-traces
// on fresh engines for the timed region (virtual metrics must repeat bit
// for bit on every replay), then searches the highest rate that meets the
// SLO.  The traced run alternates untraced, span-traced and obs-traced
// replays of the first sub-trace, times each Push and Drain, prices
// through a timing shim around the service model, re-times the escalation
// probe on the same inputs and reads the obs layer's latency breakdown.

#include <algorithm>
#include <memory>
#include <optional>

#include "harness.hpp"

namespace latte::e2e {
namespace {

constexpr std::size_t kMinCycles = 3;
// Pushes per timed segment: ~0.1 s of the ramp's probing engine, a few ms
// of the plain one.
constexpr std::size_t kSegment = 256;
constexpr double kRejectBudget = 0.01;
constexpr int kBisectSteps = 8;
constexpr std::size_t kCapacityTraces = 6;

enum class Kind { kSquad, kZipf, kRamp };

struct ServeWorkload {
  Kind kind = Kind::kSquad;
  double slo_s = 0.5;
  double nominal_rps = 0;  ///< unused by the ramp (its stages set rates)
  std::size_t traces = 1;  ///< independent sub-traces per run
  /// Goodput search bracket (squad, zipf): the low rate must meet the SLO
  /// and the high one miss it, or the result is clipped.
  double capacity_lo = 0, capacity_hi = 0;
};

ServeWorkload Lookup(const std::string& name) {
  if (name == "serve-squad") return {Kind::kSquad, 0.5, 24, 8, 2, 48};
  // Above the uncached capacity (~29 req/s): only the cache keeps up.
  if (name == "serve-zipf") return {Kind::kZipf, 0.5, 45, 8, 10, 160};
  // One long ramp: the controller's accuracy budget needs the whole
  // stream, and a replay costs seconds (the escalation probe).
  return {Kind::kRamp, 0.008, 0, 1, 0, 0};
}

std::uint64_t SubSeed(std::uint64_t seed, std::size_t k) {
  return MixHash64(seed + 0x9e3779b97f4a7c15ULL * (k + 1));
}

std::vector<TimedRequest> MakeTrace(Kind kind, double rate,
                                    std::uint64_t seed) {
  switch (kind) {
    case Kind::kSquad: {
      PoissonTraceConfig cfg;
      cfg.arrival_rate_rps = rate;
      cfg.requests = 10000;
      cfg.seed = seed;
      return GeneratePoissonTrace(cfg, Squad());
    }
    case Kind::kZipf: {
      ZipfTraceConfig cfg;
      cfg.arrival_rate_rps = rate;
      cfg.requests = 20000;
      cfg.population = 4096;
      cfg.skew = 1.0;
      cfg.seed = seed;
      return GenerateZipfTrace(cfg, Squad());
    }
    case Kind::kRamp: {
      // bench_adaptive's warmup -> overload -> cooldown ramp, x10.
      RampTraceConfig cfg;
      cfg.stages = {{8000, 960}, {18000, 1280}, {30000, 5120}, {4000, 960}};
      cfg.seed = seed;
      return GenerateRampTrace(cfg, Squad());
    }
  }
  return {};
}

/// bench_adaptive's attention-heavy model: top_k is a real latency lever.
ModelConfig AttnHeavyModel() {
  ModelConfig m;
  m.name = "attn-heavy";
  m.layers = 4;
  m.encoder.hidden = 96;
  m.encoder.heads = 4;
  m.encoder.ffn_dim = 96;
  return m;
}

ServingEngineConfig SquadEngine() {
  ServingEngineConfig cfg;
  cfg.former.max_batch = 16;
  cfg.former.max_tokens = 1024;
  cfg.former.timeout_s = 0.02;
  cfg.former.sort_by_length = true;
  cfg.workers = 2;
  cfg.threads = 1;
  cfg.queue_capacity = 256;
  cfg.execute = false;
  ServiceModelSpec spec;
  spec.base = ServiceModelSpec::Base::kAccelerator;
  spec.model = BertBase();
  cfg.service = BuildServiceModel(spec);
  return cfg;
}

/// bench_adaptive's ladder: tiers 192 and 96, then 32 with escalation.
ServingEngineConfig RampEngine() {
  const ModelConfig model = AttnHeavyModel();
  TierAccuracyTableConfig table_cfg;
  table_cfg.workload = WorkloadForDataset(Squad());
  table_cfg.workload.head_dim = model.encoder.head_dim();
  const TierAccuracyTable table =
      BuildTopKAccuracyTable(table_cfg, {32, 96, 192});
  auto accuracy = [&](std::size_t k) {
    return std::round(AccuracyForTopK(table, k) * 1e4) / 1e4;
  };

  ServingEngineConfig cfg;
  cfg.former.max_batch = 8;
  cfg.former.timeout_s = 0.002;
  cfg.workers = 2;
  cfg.threads = 1;
  cfg.queue_capacity = 32;
  cfg.execute = false;
  cfg.inference.mode = InferenceMode::kSparseInt8;
  cfg.inference.sparse.top_k = 192;
  cfg.adapt.enabled = true;
  cfg.adapt.slo_p99_s = 0.008;
  cfg.adapt.accuracy_floor = 0.90;
  cfg.adapt.epoch_s = 0.001;
  cfg.adapt.queue_ref = 8;
  cfg.adapt.latency_window = 64;
  cfg.adapt.escalate_margin = 0.0075;
  cfg.adapt.tiers = {{192, false, accuracy(192)},
                     {96, false, accuracy(96)},
                     {32, true, accuracy(32)}};
  ServiceModelSpec spec;
  spec.base = ServiceModelSpec::Base::kAccelerator;
  spec.model = model;
  spec.accel.top_k = 192;
  cfg.service = BuildServiceModel(spec);
  cfg.tier_services = BuildTierServiceModels(spec, cfg.adapt.tiers);
  return cfg;
}

struct Setup {
  explicit Setup(const ModelConfig& m) : model(m, kWeightSeed) {}

  ModelInstance model;
  ServingEngineConfig cfg;
  std::vector<std::uint64_t> seeds;  ///< one per sub-trace
  std::vector<std::vector<TimedRequest>> traces;
  std::size_t tokens = 0;  ///< over all sub-traces
  /// Modelled output cosine of the served top_k (squad, zipf); the ramp
  /// reports its request-weighted mean instead.
  double accuracy = 1;
  double gen_s = 0;

  /// The engine for sub-trace k: embeddings (and so escalation probes)
  /// follow the sub-trace's seed.
  ServingEngineConfig EngineFor(std::size_t k) const {
    ServingEngineConfig c = cfg;
    c.embed_seed = seeds[k];
    return c;
  }
};

std::unique_ptr<Setup> Build(const ServeWorkload& w, std::uint64_t seed) {
  // Accounting-only engines read only the encoder shape (cache entry
  // bytes) from the functional instance, so one BERT-base-shaped layer
  // stands in for the twelve the twin prices.
  auto s = std::make_unique<Setup>(w.kind == Kind::kRamp ? AttnHeavyModel()
                                                         : BertBaseLayer());
  if (w.kind == Kind::kRamp) {
    s->cfg = RampEngine();
  } else {
    s->cfg = SquadEngine();
    if (w.kind == Kind::kZipf) {
      s->cfg.cache.enabled = true;
      s->cfg.cache.key_policy = CacheKeyPolicy::kRequestId;
      s->cfg.cache.eviction = EvictionPolicy::kSegmentedLru;
      s->cfg.cache.capacity_bytes = 64ull << 20;
    }
    TierAccuracyTableConfig table_cfg;
    table_cfg.workload = WorkloadForDataset(Squad());
    const std::size_t top_k = AcceleratorConfig{}.top_k;
    s->accuracy =
        AccuracyForTopK(BuildTopKAccuracyTable(table_cfg, {top_k}), top_k);
  }
  const auto gen0 = Clock::now();
  for (std::size_t k = 0; k < w.traces; ++k) {
    s->seeds.push_back(SubSeed(seed, k));
    s->traces.push_back(MakeTrace(w.kind, w.nominal_rps, s->seeds.back()));
    s->tokens += TraceTokens(s->traces.back());
  }
  s->gen_s = SecondsSince(gen0);
  return s;
}

/// The virtual-time outcome of a replay; must repeat bit for bit.
struct Virtual {
  double p50 = 0, p99 = 0, mean = 0, throughput = 0, busy = 0, accuracy = 0;
  std::size_t offered = 0, accepted = 0, rejected = 0, batches = 0;
  std::size_t hits = 0, coalesced = 0, evictions = 0;

  bool operator==(const Virtual&) const = default;
};

Virtual Signature(const ServingResult& res) {
  const ServingReport& rep = res.report();
  return {rep.p50_latency_s,      rep.p99_latency_s,      rep.mean_latency_s,
          rep.throughput_rps,     rep.device_busy_frac,   rep.mean_accuracy,
          res.admission.offered,  res.admission.accepted, res.admission.rejected,
          rep.batches,            res.cache.hits,         res.cache.coalesced,
          res.cache.store.evictions};
}

/// Requests whose accounting is broken: conservation (offered = accepted
/// + rejected + hits + coalesced) and exactly-once completion of every
/// request that was not rejected.
std::size_t AccountingFailures(const ServingResult& res) {
  const AdmissionStats& adm = res.admission;
  std::vector<std::uint8_t> done(adm.offered, 0);
  for (const FormedBatch& b : res.batches) {
    for (std::size_t idx : b.indices) {
      if (!res.superseded.empty() && res.superseded[idx] != 0) continue;
      ++done[res.offered_ids[idx]];
    }
  }
  for (const CacheServedRequest& c : res.cache_served) ++done[c.offered_id];
  std::size_t once = 0, duplicated = 0;
  for (std::uint8_t d : done) {
    once += d == 1 ? 1 : 0;
    duplicated += d > 1 ? 1 : 0;
  }
  const std::size_t expected = adm.offered - adm.rejected;
  std::size_t bad =
      duplicated + (once > expected ? once - expected : expected - once);
  const std::size_t accounted =
      adm.accepted + adm.rejected + res.cache.hits + res.cache.coalesced;
  if (accounted != adm.offered) {
    bad += accounted > adm.offered ? accounted - adm.offered
                                   : adm.offered - accounted;
  }
  return bad;
}

/// Virtual latency of every completed request (batched ones from their
/// original arrival, cache-served ones included), appended unsorted.
/// `slo_s` > 0 also counts those within it into `*within`.
void AppendLatencies(const ServingResult& res,
                     const std::vector<TimedRequest>& trace,
                     std::vector<double>& out, double slo_s = 0,
                     std::size_t* within = nullptr) {
  auto add = [&](double latency) {
    out.push_back(latency);
    if (within != nullptr && latency <= slo_s) ++*within;
  };
  for (std::size_t b = 0; b < res.batches.size(); ++b) {
    for (std::size_t idx : res.batches[b].indices) {
      if (!res.superseded.empty() && res.superseded[idx] != 0) continue;
      add(res.schedule.done_s[b] - trace[res.offered_ids[idx]].arrival_s);
    }
  }
  for (const CacheServedRequest& c : res.cache_served) {
    add(c.done_s - c.arrival_s);
  }
}

/// The extracted latencies are the report's own: same percentiles, bit
/// for bit.
bool LatenciesMatchReport(std::vector<double> latencies,
                          const ServingReport& rep) {
  std::sort(latencies.begin(), latencies.end());
  return latencies.size() == rep.requests &&
         obs::PercentileOfSorted(latencies, 0.5) == rep.p50_latency_s &&
         obs::PercentileOfSorted(latencies, 0.95) == rep.p95_latency_s &&
         obs::PercentileOfSorted(latencies, 0.99) == rep.p99_latency_s;
}

/// engine.Replay(trace) with its host time recorded in segments: the
/// pushes kSegment at a time, then the drain.  Segments are numbered from
/// `segment` on, which is advanced past them; their sum is added to
/// `seconds`.
ServingResult TimedReplay(ServingEngine& engine,
                          const std::vector<TimedRequest>& trace,
                          FastestRepeat& fastest, std::size_t& segment,
                          double& seconds) {
  auto timed = [&](auto&& work) {
    const auto t0 = Clock::now();
    work();
    const double t = SecondsSince(t0);
    fastest.Record(segment++, t);
    seconds += t;
  };
  for (std::size_t i = 0; i < trace.size(); i += kSegment) {
    timed([&] {
      const std::size_t end = std::min(i + kSegment, trace.size());
      for (std::size_t j = i; j < end; ++j) engine.Push(trace[j]);
    });
  }
  std::optional<ServingResult> res;
  timed([&] { res = engine.Drain(); });
  return std::move(*res);
}

/// Highest rate meeting the SLO (pooled p99 and reject share over the
/// first kCapacityTraces sub-traces), by bisection inside the workload's
/// bracket on time-scaled traces of the same sub-seeds.
double Capacity(const ServeWorkload& w, const Setup& s, RunResult& r) {
  const std::size_t traces = std::min(kCapacityTraces, s.seeds.size());
  auto meets = [&](double rate) {
    std::vector<double> latencies;
    std::size_t rejected = 0, offered = 0;
    for (std::size_t k = 0; k < traces; ++k) {
      const std::vector<TimedRequest> trace =
          MakeTrace(w.kind, rate, s.seeds[k]);
      ServingEngine engine(s.model, s.EngineFor(k));
      const ServingResult res = engine.Replay(trace);
      AppendLatencies(res, trace, latencies);
      rejected += res.admission.rejected;
      offered += res.admission.offered;
    }
    std::sort(latencies.begin(), latencies.end());
    return obs::PercentileOfSorted(latencies, 0.99) <= w.slo_s &&
           static_cast<double>(rejected) <=
               kRejectBudget * static_cast<double>(offered);
  };
  double lo = w.capacity_lo, hi = w.capacity_hi;
  const bool lo_ok = meets(lo);
  r.Check("goodput_not_clipped", lo_ok && !meets(hi));
  if (!lo_ok) return 0;
  for (int step = 0; step < kBisectSteps; ++step) {
    const double mid = 0.5 * (lo + hi);
    (meets(mid) ? lo : hi) = mid;
  }
  r.Samples("capacity_traces", traces);
  return lo;
}

RunResult Untraced(const Options& opts, const ServeWorkload& w,
                   const Setup& s, const std::vector<double>& setup_s) {
  RunResult r;
  std::vector<double> cycle_s;
  FastestRepeat segment_s;
  CoreSpeed core;
  std::vector<Virtual> signatures;
  std::vector<double> latencies;
  std::size_t offered = 0, rejected = 0, within_slo = 0, broken = 0;
  double span_s = 0, accuracy_sum = 0;
  bool identical = true, extracted = true;
  const auto start = Clock::now();
  do {
    double cycle = 0;
    std::size_t segment = 0;
    for (std::size_t k = 0; k < s.traces.size(); ++k) {
      ServingEngine engine(s.model, s.EngineFor(k));
      const ServingResult res =
          TimedReplay(engine, s.traces[k], segment_s, segment, cycle);
      r.attempted += res.admission.offered;
      broken += AccountingFailures(res);
      if (signatures.size() < s.traces.size()) {
        // First cycle: the virtual metrics.
        signatures.push_back(Signature(res));
        std::vector<double> own;
        AppendLatencies(res, s.traces[k], own, w.slo_s, &within_slo);
        extracted = extracted && LatenciesMatchReport(own, res.report());
        latencies.insert(latencies.end(), own.begin(), own.end());
        offered += res.admission.offered;
        rejected += res.admission.rejected;
        span_s += res.report().throughput_rps > 0
                      ? static_cast<double>(res.report().requests) /
                            res.report().throughput_rps
                      : 0;
        accuracy_sum += res.report().mean_accuracy *
                        static_cast<double>(res.report().requests);
      } else {
        identical = identical && Signature(res) == signatures[k];
      }
    }
    cycle_s.push_back(cycle);
    core.Sample();
  } while (KeepGoing(start, cycle_s.size(), kMinCycles, cycle_s.back(),
                     opts.seconds));
  r.Check("admission_conserved_and_completed_once", broken == 0, broken);
  r.Check("virtual_identical_across_replays", identical);
  r.Check("latencies_match_report", extracted);

  double mean = 0;
  for (double l : latencies) mean += l;
  mean /= static_cast<double>(latencies.size());
  std::sort(latencies.begin(), latencies.end());
  const double completed = static_cast<double>(latencies.size());
  // Squad and zipf search the highest rate meeting the SLO; the ramp's
  // shape is fixed, so its goodput is completions within the SLO per
  // virtual second of the ramp.
  const double goodput = w.kind == Kind::kRamp
                             ? static_cast<double>(within_slo) / span_s
                             : Capacity(w, s, r);
  const double host_s = segment_s.Sum() / core.Scale();

  r.Add("setup_s", Median(setup_s), "s");
  r.Add("tokens_per_s", static_cast<double>(s.tokens) / host_s, "tokens/s");
  r.Add("sim_mean_ms", mean * 1e3, "ms");
  r.Add("sim_p95_ms", obs::PercentileOfSorted(latencies, 0.95) * 1e3, "ms");
  r.Add("goodput_rps", goodput, "req/s");
  r.Add("served_frac",
        1.0 - static_cast<double>(rejected) / static_cast<double>(offered),
        "frac");
  r.Add("accuracy",
        w.kind == Kind::kRamp ? accuracy_sum / completed : s.accuracy,
        "cosine");
  r.Info("sim_p50_ms", obs::PercentileOfSorted(latencies, 0.5) * 1e3);
  r.Info("sim_p99_ms", obs::PercentileOfSorted(latencies, 0.99) * 1e3);
  r.Info("host_kreq_per_s", static_cast<double>(offered) / host_s / 1e3);
  r.Info("median_cycle_kreq_per_s",
         static_cast<double>(offered) / Median(cycle_s) / 1e3);
  r.Info("reference_loop_s", core.loop_s());
  r.Info("rejected", static_cast<double>(rejected));
  r.Samples("cycles", cycle_s.size());
  r.Samples("traces_per_cycle", s.traces.size());
  r.Samples("requests_per_cycle", offered);
  r.Samples("latency_samples", latencies.size());
  return r;
}

// ----------------------------------------------------------- traced run --

enum Span : std::size_t { kPush, kPushHit, kPushMiss, kDrain, kPrice, kProbe };

std::vector<std::string> SpanNames() {
  return {"serve.push",  "cache.push_hit", "cache.push_miss",
          "serve.drain", "fpga.price",     "adapt.probe"};
}

/// Times every call of a service model as an fpga.price span.
BatchServiceModel PriceShim(BatchServiceModel inner, SpanTrace& trace) {
  return [inner = std::move(inner), &trace](const std::vector<std::size_t>& l) {
    SpanTrace::Scope span(trace, kPrice, l.size());
    return inner(l);
  };
}

RunResult Traced(const Options& opts, const ServeWorkload& w, const Setup& s) {
  RunResult r;
  const std::vector<TimedRequest>& nominal = s.traces.front();
  const ServingEngineConfig plain = s.EngineFor(0);
  SpanTrace trace(SpanNames());
  ServingEngineConfig shimmed = plain;
  shimmed.service = PriceShim(plain.service, trace);
  for (BatchServiceModel& tier : shimmed.tier_services) {
    tier = PriceShim(tier, trace);
  }
  ServingEngineConfig observed = plain;
  observed.trace.enabled = true;
  observed.trace.buffer_capacity = 1u << 20;

  std::vector<double> untraced_s, traced_s, observed_s;
  std::optional<ServingResult> reference;
  std::optional<obs::LatencyBreakdown> breakdown;
  bool identical = true, breakdown_matches = true;
  std::uint64_t dropped = 0;
  std::int64_t max_level = 0;
  const auto start = Clock::now();
  do {
    {
      ServingEngine engine(s.model, plain);
      const auto t0 = Clock::now();
      ServingResult res = engine.Replay(nominal);
      untraced_s.push_back(SecondsSince(t0));
      r.attempted += res.admission.offered;
      if (!reference) reference = std::move(res);
    }
    {
      trace.set_recording(traced_s.empty());
      ServingEngine engine(s.model, shimmed);
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < nominal.size(); ++i) {
        SpanTrace::Scope push(trace, kPush, i);
        const AdmissionStats before = engine.admission();
        engine.Push(nominal[i]);
        if (w.kind == Kind::kZipf) {
          // Served by the cache layer (hit or coalesced) iff admission
          // neither accepted nor rejected it.
          const AdmissionStats& after = engine.admission();
          const bool missed = after.accepted + after.rejected !=
                              before.accepted + before.rejected;
          trace.Relabel(missed ? kPushMiss : kPushHit);
        }
      }
      std::optional<ServingResult> res;
      {
        SpanTrace::Scope drain(trace, kDrain, 0);
        res = engine.Drain();
      }
      traced_s.push_back(SecondsSince(t0));
      trace.set_recording(false);
      identical = identical && Signature(*res) == Signature(*reference);
    }
    {
      ServingEngine engine(s.model, observed);
      const auto t0 = Clock::now();
      const ServingResult res = engine.Replay(nominal);
      observed_s.push_back(SecondsSince(t0));
      identical = identical && Signature(res) == Signature(*reference);
      if (!breakdown) {
        const obs::Tracer& tracer = *engine.tracer();
        breakdown = obs::ComputeBreakdown(obs::AttributeTracer(tracer));
        breakdown_matches =
            obs::BreakdownMatchesReport(*breakdown, res.report());
        dropped = tracer.total_dropped();
        for (const obs::TraceEvent& e : tracer.Merged()) {
          if (e.kind == obs::SpanKind::kEpoch) {
            max_level = std::max(max_level, e.arg);
          }
        }
      }
    }
  } while (KeepGoing(start, traced_s.size(), 1,
                     untraced_s.back() + traced_s.back() + observed_s.back(),
                     opts.seconds));
  r.Check("virtual_identical_traced_untraced", identical);
  r.Check("breakdown_matches_report", breakdown_matches, 0);
  r.Check("obs_spans_complete", dropped == 0, 0);

  const ServingResult& res = *reference;
  const ServingReport& rep = res.report();
  const double offered = static_cast<double>(res.admission.offered);
  const double untraced = Median(untraced_s);
  double wall = 0;
  for (double t : traced_s) wall += t;
  auto total = [&](Span span) { return trace.totals(span).total_s; };
  double covered = 0;
  for (Span span : {kPush, kPushHit, kPushMiss, kDrain, kPrice}) {
    covered += trace.totals(span).self_s;
  }

  if (w.kind == Kind::kRamp) {
    // The probe runs inside Push; re-time it on the inputs the engine
    // built for every first pass at the escalating tier.
    const std::size_t last = plain.adapt.tiers.size() - 1;
    const std::size_t hidden = s.model.config().encoder.hidden;
    for (std::size_t idx = 0; idx < res.request_tiers.size(); ++idx) {
      if (res.request_tiers[idx] != last) continue;
      const std::size_t ordinal = res.offered_ids[idx];
      const MatrixF x = SynthesizeRequestEmbedding(
          plain.embed_seed, ordinal, nominal[ordinal].length, hidden);
      SpanTrace::Scope probe(trace, kProbe, ordinal);
      ProbeSelectorMargin(x, s.model, plain.adapt.tiers[last].top_k,
                          plain.adapt.escalate_bits, plain.adapt.escalate_rows);
    }
    std::size_t served = 0, degraded = 0, escalated = 0;
    for (std::size_t t = 0; t < rep.tiers.size(); ++t) {
      served += rep.tiers[t].requests;
      degraded += t > 0 ? rep.tiers[t].requests : 0;
      escalated += rep.tiers[t].escalated;
    }
    r.Add("adapt.probe_share", total(kProbe) / untraced, "frac");
    r.Add("adapt.probe_calls", static_cast<double>(trace.totals(kProbe).calls),
          "count");
    r.Add("adapt.degraded_frac",
          static_cast<double>(degraded) / static_cast<double>(served), "frac");
    r.Add("adapt.escalated", static_cast<double>(escalated), "count");
    r.Add("adapt.max_level", static_cast<double>(max_level), "count");
  }
  if (w.kind == Kind::kZipf) {
    r.Add("cache.hit_frac", static_cast<double>(res.cache.hits) / offered,
          "frac");
    r.Add("cache.coalesced_frac",
          static_cast<double>(res.cache.coalesced) / offered, "frac");
    r.Add("cache.evictions", static_cast<double>(res.cache.store.evictions),
          "count");
    r.Add("cache.peak_mb",
          static_cast<double>(res.cache.store.peak_bytes) / (1 << 20), "MiB");
    r.Add("cache.hit_push_share", total(kPushHit) / wall, "frac");
    r.Add("cache.miss_push_share", total(kPushMiss) / wall, "frac");
  }
  const auto tail_share = [&](obs::Stage stage) {
    return breakdown->tail.share[static_cast<std::size_t>(stage)];
  };
  r.Add("serve.push_share",
        (total(kPush) + total(kPushHit) + total(kPushMiss)) / wall, "frac");
  r.Add("serve.drain_share", total(kDrain) / wall, "frac");
  r.Add("fpga.price_calls",
        static_cast<double>(trace.totals(kPrice).calls) /
            static_cast<double>(traced_s.size()),
        "count");
  r.Add("fpga.price_share", total(kPrice) / wall, "frac");
  r.Add("serve.p99_queue_frac", tail_share(obs::Stage::kQueueWait), "frac");
  r.Add("serve.p99_service_frac", tail_share(obs::Stage::kService), "frac");
  r.Add("serve.mean_batch", rep.mean_batch_size, "count");
  r.Add("serve.busy_frac", rep.device_busy_frac, "frac");
  r.Add("serve.peak_queue", static_cast<double>(res.admission.peak_queue),
        "count");
  r.Add("obs.trace_overhead_frac", Median(observed_s) / untraced - 1, "frac");
  r.Add("obs.dropped_spans", static_cast<double>(dropped), "count");
  r.Add("trace.coverage_frac", covered / wall, "frac");
  r.Add("trace.overhead_frac", Median(traced_s) / untraced - 1, "frac");
  r.Add("trace.bit_exact", identical && breakdown_matches ? 1 : 0, "bool");
  r.Add("trace.wall_ms", Median(traced_s) * 1e3, "ms");
  r.Add("workload.gen_ms", s.gen_s * 1e3, "ms");
  r.Samples("rounds", traced_s.size());
  r.Samples("recorded_spans", trace.recorded());
  r.Samples("dropped_spans", trace.dropped());

  const std::string base = opts.trace_dir + "/" + opts.workload;
  r.Check("trace_written", trace.WriteChrome(base + ".trace.json") &&
                               trace.WriteLayers(base + ".layers.json", wall));
  return r;
}

}  // namespace

RunResult RunServe(const Options& opts) {
  const ServeWorkload w = Lookup(opts.workload);
  std::vector<double> setup_s;
  const std::unique_ptr<Setup> s = RepeatSetup(
      opts.traced() ? 1 : kSetups, [&] { return Build(w, opts.seed); },
      setup_s);
  RunResult r = opts.traced() ? Traced(opts, w, *s)
                              : Untraced(opts, w, *s, setup_s);
  r.Samples("setups", setup_s.size());
  return r;
}

}  // namespace latte::e2e
