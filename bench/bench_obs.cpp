// Observability benchmark: the cost and the contracts of the tracing
// layer, emitted as machine-readable JSON (BENCH_obs.json, or argv[1])
// plus a Chrome trace artifact (TRACE_obs.json, or argv[2]) for the CI
// perf-smoke job.
//
// Four cells:
//   * sweep      -- traced serving runs (execute=true) across arrival
//                   rates; the counts (requests, batches, trace events)
//                   are trace-driven and gate exactly against the
//                   recorded baseline.
//   * overhead   -- the tracer's own cost: best-of-N nanoseconds per
//                   recorded event times the events of one replay, over
//                   the best untraced replay wall time.  The disabled path
//                   is one pointer check per site, the enabled path a
//                   bounded in-memory append per event; the headline bit
//                   gates that cost < 3%.  The median paired traced/
//                   untraced replay difference is kept as info.
//   * bit_exact  -- tracing on changes nothing: outputs and the
//                   virtual-time report are bit-identical vs untraced.
//   * determinism-- the exported Chrome trace, metrics snapshot, latency
//                   breakdown and flame file are byte-identical at 1 and
//                   4 runner threads, and a tiny ring buffer accounts
//                   every dropped event exactly.
//   * breakdown  -- per-request latency attribution (obs/analyze): every
//                   request's stage segments tile its end-to-end latency
//                   gap-free, the breakdown percentiles match the pooled
//                   report bitwise, and the artifacts (BREAKDOWN_obs.json,
//                   FLAME_obs.txt) gate against recorded baselines.
//   * capture    -- .lattetrace round-trip (workload/trace_io): the bench
//                   load serializes, reloads and replays bit-exactly, and
//                   the canonical capture under bench/traces/ still
//                   matches the generator.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/analyze.hpp"
#include "obs/json_writer.hpp"
#include "workload/trace_io.hpp"

namespace latte {
namespace {

ServingEngineConfig ObsEngineConfig(std::size_t threads, bool traced) {
  ServingEngineConfig cfg;
  cfg.former.max_batch = 8;
  cfg.former.timeout_s = 0.02;
  cfg.workers = 2;
  cfg.threads = threads;
  cfg.inference.mode = InferenceMode::kSparseInt8;
  cfg.inference.sparse.top_k = 30;
  cfg.trace.enabled = traced;
  return cfg;
}

std::vector<TimedRequest> ObsTrace(double rate, std::size_t requests) {
  PoissonTraceConfig cfg;
  cfg.arrival_rate_rps = rate;
  cfg.requests = requests;
  cfg.seed = 7;
  return GeneratePoissonTrace(cfg, Mrpc());
}

double ReplayWallSeconds(const ModelInstance& model,
                         const ServingEngineConfig& cfg,
                         const std::vector<TimedRequest>& trace) {
  ServingEngine engine(model, cfg);
  const auto t0 = std::chrono::steady_clock::now();
  const ServingResult res = engine.Replay(trace);
  const auto t1 = std::chrono::steady_clock::now();
  (void)res;
  return std::chrono::duration<double>(t1 - t0).count();
}

// The enabled tracing path, timed on its own: best of `reps` runs of
// stamping and recording `events` events round-robin into `tracks` tracks
// of a fresh tracer, as the engine's RecordSpan does, in ns per event.
double TracerNsPerEvent(const obs::TraceConfig& cfg, std::size_t tracks,
                        std::size_t events, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    obs::Tracer tracer(cfg);
    for (std::size_t t = 0; t < tracks; ++t) {
      tracer.RegisterTrack(static_cast<std::uint32_t>(t), "track");
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < events; ++i) {
      obs::TraceEvent e;
      e.begin_s = static_cast<double>(i) * 1e-6;
      e.end_s = e.begin_s + 1e-6;
      e.id = i;
      e.arg = static_cast<std::int64_t>(i % 8);
      e.track = static_cast<std::uint32_t>(i % tracks);
      e.kind = obs::SpanKind::kService;
      tracer.Record(e);
    }
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best / static_cast<double>(events) * 1e9;
}

bool SameOutputs(const ServingResult& a, const ServingResult& b) {
  if (a.outputs.size() != b.outputs.size()) return false;
  for (std::size_t i = 0; i < a.outputs.size(); ++i) {
    if (a.outputs[i].rows() != b.outputs[i].rows() ||
        a.outputs[i].cols() != b.outputs[i].cols()) {
      return false;
    }
    for (std::size_t r = 0; r < a.outputs[i].rows(); ++r) {
      for (std::size_t c = 0; c < a.outputs[i].cols(); ++c) {
        if (a.outputs[i](r, c) != b.outputs[i](r, c)) return false;
      }
    }
  }
  return true;
}

bool SameReport(const ServingReport& a, const ServingReport& b) {
  return a.requests == b.requests && a.batches == b.batches &&
         a.mean_latency_s == b.mean_latency_s &&
         a.p50_latency_s == b.p50_latency_s &&
         a.p95_latency_s == b.p95_latency_s &&
         a.p99_latency_s == b.p99_latency_s &&
         a.throughput_rps == b.throughput_rps &&
         a.device_busy_frac == b.device_busy_frac;
}

std::string MetricsSnapshot(const ServingEngine& engine,
                            const ServingResult& res) {
  obs::MetricsRegistry reg;
  obs::ExportServingReport(res.report(), "serve", reg);
  obs::ExportAdmissionStats(res.admission, "serve.admission", reg);
  obs::ExportTracerStats(*engine.tracer(), "serve.trace", reg);
  return reg.ToJson();
}

}  // namespace
}  // namespace latte

int main(int argc, char** argv) {
  using namespace latte;
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_obs.json";
  const std::string trace_path = argc > 2 ? argv[2] : "TRACE_obs.json";
  const std::string breakdown_path =
      argc > 3 ? argv[3] : "BREAKDOWN_obs.json";
  const std::string flame_path = argc > 4 ? argv[4] : "FLAME_obs.txt";
  // The canonical capture, committed with the repo; CI runs from the
  // repo root so the path resolves.
  const std::string lattetrace_path =
      argc > 5 ? argv[5] : "bench/traces/obs_load.lattetrace";

  const ModelConfig func_model = ScaledDown(BertBase(), 6);
  const ModelInstance model(func_model, 2022);
  const std::size_t requests = 64;

  obs::JsonWriter json;
  json.BeginObject();
  json.Key("bench").Value("obs");
  json.Key("schema_version").Value(std::size_t{1});
  obs::StampHost(json);
  json.Key("functional_model").Value(func_model.name);
  json.Key("requests").Value(requests);
  json.Key("workers").Value(std::size_t{2});

  // ------------------------------------------------- traced serving sweep --
  json.Key("results");
  json.BeginArray();
  TextTable table({"arrival (req/s)", "batches", "p99 (ms)", "events",
                   "dropped"});
  for (double rate : {60.0, 180.0}) {
    const auto trace = ObsTrace(rate, requests);
    ServingEngine engine(model, ObsEngineConfig(2, /*traced=*/true));
    const ServingResult res = engine.Replay(trace);
    const auto merged = engine.tracer()->Merged();

    json.BeginObject();
    json.Key("arrival_rps").Value(rate);
    json.Key("requests").Value(res.report().requests);
    json.Key("batches").Value(res.report().batches);
    json.Key("accepted").Value(res.admission.accepted);
    json.Key("rejected").Value(res.admission.rejected);
    json.Key("trace_events").Value(merged.size());
    json.Key("trace_dropped")
        .Value(static_cast<std::size_t>(engine.tracer()->total_dropped()));
    json.Key("p99_ms").Value(res.report().p99_latency_s * 1e3);
    json.Key("throughput_rps").Value(res.report().throughput_rps);
    json.EndObject();

    table.AddRow({Fmt(rate, 0), std::to_string(res.report().batches),
                  Fmt(res.report().p99_latency_s * 1e3, 1),
                  std::to_string(merged.size()),
                  std::to_string(engine.tracer()->total_dropped())});
  }
  json.EndArray();

  // -------------------------------------------------------- overhead cell --
  // The workload executes real tensors -- the regime the <3% budget is
  // claimed for.  The gated fraction is the tracer's measured absolute
  // cost: ns per event (best of N, timed on its own) times the events one
  // traced replay records, over the best untraced replay.  A fixed cost
  // over a replay time is stable however fast the tensors run; the paired
  // replay difference is not, as host jitter on a shared core is the same
  // size as the budget.  That difference stays as info (median of
  // interleaved untraced/traced pairs, single-threaded), so indirect costs
  // such as cache pollution still show.
  const auto load = ObsTrace(180.0, requests);
  const auto overhead_load = ObsTrace(180.0, 2 * requests);
  const int reps = 9;
  std::vector<double> pair_fracs;
  double untraced = 1e300, traced = 1e300;
  ReplayWallSeconds(model, ObsEngineConfig(1, false), load);  // warmup
  for (int r = 0; r < reps; ++r) {
    const double u =
        ReplayWallSeconds(model, ObsEngineConfig(1, false), overhead_load);
    const double t =
        ReplayWallSeconds(model, ObsEngineConfig(1, true), overhead_load);
    pair_fracs.push_back(t / u - 1.0);
    if (u < untraced) untraced = u;
    if (t < traced) traced = t;
  }
  std::sort(pair_fracs.begin(), pair_fracs.end());
  const double overhead_frac = pair_fracs[pair_fracs.size() / 2];
  std::size_t replay_events = 0, replay_tracks = 0;
  {
    ServingEngine engine(model, ObsEngineConfig(1, true));
    engine.Replay(overhead_load);
    replay_events = engine.tracer()->Merged().size() +
                    static_cast<std::size_t>(engine.tracer()->total_dropped());
    replay_tracks = engine.tracer()->tracks().size();
  }
  const double ns_per_event =
      TracerNsPerEvent(ObsEngineConfig(1, true).trace, replay_tracks,
                       std::max<std::size_t>(replay_events, 1), reps);
  const double tracer_cost_frac =
      ns_per_event * 1e-9 * static_cast<double>(replay_events) / untraced;
  const bool overhead_ok = tracer_cost_frac < 0.03;
  json.Key("overhead");
  json.BeginObject();
  json.Key("reps").Value(std::size_t{reps});
  json.Key("untraced_wall_s").Value(untraced);
  json.Key("traced_wall_s").Value(traced);
  json.Key("overhead_frac").Value(overhead_frac);
  json.Key("replay_events").Value(replay_events);
  json.Key("ns_per_event").Value(ns_per_event);
  json.Key("tracer_cost_frac").Value(tracer_cost_frac);
  json.Key("overhead_ok").Value(overhead_ok);
  json.EndObject();

  // ------------------------------------------------------- bit-exact cell --
  bool outputs_identical, report_identical;
  {
    ServingEngine plain(model, ObsEngineConfig(2, false));
    ServingEngine with_trace(model, ObsEngineConfig(2, true));
    const ServingResult a = plain.Replay(load);
    const ServingResult b = with_trace.Replay(load);
    outputs_identical = SameOutputs(a, b);
    report_identical = SameReport(a.report(), b.report());
  }
  json.Key("bit_exact");
  json.BeginObject();
  json.Key("outputs_identical").Value(outputs_identical);
  json.Key("report_identical").Value(report_identical);
  json.EndObject();

  // ------------------------------------- determinism + attribution cells --
  // One pair of traced runs feeds both: the {1,4}-thread byte-identity
  // gate now also covers the analysis artifacts (breakdown JSON + flame),
  // and the 1-thread run's attribution is the recorded baseline.
  std::string trace_1t, metrics_1t, trace_4t, metrics_4t;
  std::string breakdown_1t, breakdown_4t, flame_1t, flame_4t;
  bool matches_report = false;
  obs::LatencyBreakdown bd;
  {
    ServingEngine one(model, ObsEngineConfig(1, true));
    const ServingResult res1 = one.Replay(load);
    trace_1t = obs::ChromeTraceJson(*one.tracer());
    metrics_1t = MetricsSnapshot(one, res1);
    const obs::Attribution att1 = obs::AttributeTracer(*one.tracer());
    bd = obs::ComputeBreakdown(att1);
    breakdown_1t = obs::BreakdownJson(bd);
    flame_1t = obs::CollapsedStacks(att1.requests);
    matches_report = obs::BreakdownMatchesReport(bd, res1.report());
    ServingEngine four(model, ObsEngineConfig(4, true));
    const ServingResult res4 = four.Replay(load);
    trace_4t = obs::ChromeTraceJson(*four.tracer());
    metrics_4t = MetricsSnapshot(four, res4);
    const obs::Attribution att4 = obs::AttributeTracer(*four.tracer());
    breakdown_4t = obs::BreakdownJson(obs::ComputeBreakdown(att4));
    flame_4t = obs::CollapsedStacks(att4.requests);
  }
  const bool byte_identical = trace_1t == trace_4t && metrics_1t == metrics_4t;
  const bool analysis_identical =
      breakdown_1t == breakdown_4t && flame_1t == flame_4t;
  json.Key("determinism");
  json.BeginObject();
  json.Key("trace_bytes").Value(trace_1t.size());
  json.Key("metrics_bytes").Value(metrics_1t.size());
  json.Key("byte_identical").Value(byte_identical);
  json.Key("analysis_identical").Value(analysis_identical);
  json.EndObject();

  json.Key("breakdown");
  json.BeginObject();
  json.Key("requests").Value(bd.requests);
  json.Key("rejected").Value(bd.rejected);
  json.Key("unattributed").Value(bd.unattributed);
  json.Key("stages").Value(bd.stages.size());
  json.Key("gap_free").Value(bd.gap_free);
  json.Key("reconstruction_exact").Value(bd.reconstruction_exact);
  json.Key("matches_report").Value(matches_report);
  json.Key("dominant_tail_stage").Value(obs::StageName(bd.tail.dominant));
  json.Key("flame_bytes").Value(flame_1t.size());
  json.EndObject();

  // ---------------------------------------------------------- capture cell --
  // .lattetrace round-trip: serialize -> parse -> serialize is
  // byte-stable, the canonical committed capture still matches what the
  // generator produces today, and replaying the loaded trace reproduces
  // the exact analysis artifacts of the generated one.
  const std::string captured = TraceToJson(load);
  const bool roundtrip_identical =
      TraceToJson(TraceFromJson(captured)) == captured;
  std::vector<TimedRequest> from_file;
  const bool file_loaded = TryLoadTrace(lattetrace_path, from_file);
  const bool file_matches = file_loaded && TraceToJson(from_file) == captured;
  bool replay_identical = false;
  {
    ServingEngine rep(model, ObsEngineConfig(1, true));
    rep.Replay(file_loaded ? from_file : TraceFromJson(captured));
    const obs::Attribution att = obs::AttributeTracer(*rep.tracer());
    replay_identical =
        obs::ChromeTraceJson(*rep.tracer()) == trace_1t &&
        obs::BreakdownJson(obs::ComputeBreakdown(att)) == breakdown_1t &&
        obs::CollapsedStacks(att.requests) == flame_1t;
  }
  json.Key("capture");
  json.BeginObject();
  json.Key("trace_bytes").Value(captured.size());
  json.Key("version").Value(kTraceVersion);
  json.Key("roundtrip_identical").Value(roundtrip_identical);
  json.Key("file_loaded").Value(file_loaded);
  json.Key("file_matches").Value(file_matches);
  json.Key("replay_identical").Value(replay_identical);
  json.EndObject();

  // -------------------------------------------------------- overflow cell --
  std::size_t overflow_recorded, overflow_dropped;
  {
    ServingEngineConfig tiny = ObsEngineConfig(2, true);
    tiny.trace.buffer_capacity = 8;
    tiny.execute = false;  // accounting-only: the counts are the point
    ServingEngine engine(model, tiny);
    engine.Replay(load);
    overflow_recorded = engine.tracer()->Merged().size();
    overflow_dropped =
        static_cast<std::size_t>(engine.tracer()->total_dropped());
  }
  json.Key("overflow");
  json.BeginObject();
  json.Key("capacity").Value(std::size_t{8});
  json.Key("recorded").Value(overflow_recorded);
  json.Key("dropped").Value(overflow_dropped);
  json.Key("accounted_ok").Value(overflow_dropped > 0);
  json.EndObject();

  // ---------------------------------------------------- manifest + export --
  {
    search::DesignPoint dp;
    search::ReplicaDesign rd;
    rd.former = ObsEngineConfig(2, true).former;
    rd.workers = 2;
    rd.top_k = 30;
    dp.replicas.push_back(rd);
    obs::RunManifest manifest;
    manifest.name = "bench_obs/serving_sweep";
    manifest.seed = 7;
    manifest.config_json = search::DesignPointToJson(dp);
    manifest.metrics = {{"overhead_frac", overhead_frac},
                        {"tracer_cost_frac", tracer_cost_frac},
                        {"untraced_wall_s", untraced},
                        {"traced_wall_s", traced}};
    json.Key("manifest");
    obs::WriteRunManifest(manifest, json);
  }
  json.EndObject();

  // The Chrome trace artifact CI loads with jq: the 1-thread determinism
  // run (byte-identical to the 4-thread one by the gate above).
  obs::JsonWriter trace_json;
  trace_json.Raw(trace_1t);

  std::printf("== Observability: tracing cost and determinism ==\n\n");
  std::printf("%s\n", table.Render().c_str());
  std::printf(
      "overhead: tracer %.1f ns/event x %zu events = %.4f%% of the untraced "
      "%.1fms replay -> %s (paired traced/untraced median %+.2f%%)\n",
      ns_per_event, replay_events, tracer_cost_frac * 100, untraced * 1e3,
      overhead_ok ? "ok" : "OVER BUDGET", overhead_frac * 100);
  std::printf("bit-exact vs untraced: outputs %s, report %s\n",
              outputs_identical ? "yes" : "NO",
              report_identical ? "yes" : "NO");
  std::printf("byte-identical across {1,4} threads: export %s, analysis %s\n",
              byte_identical ? "yes" : "NO",
              analysis_identical ? "yes" : "NO");
  std::printf(
      "attribution: %zu requests, gap-free %s, reconstruction %s, "
      "report match %s, tail dominated by %s\n",
      bd.requests, bd.gap_free ? "yes" : "NO",
      bd.reconstruction_exact ? "yes" : "NO", matches_report ? "yes" : "NO",
      obs::StageName(bd.tail.dominant));
  if (!bd.critical_path.empty()) {
    std::printf("critical path: %s\n", bd.critical_path.c_str());
  }
  std::printf(
      "capture: %zu bytes, roundtrip %s, canonical file %s, replay %s\n",
      captured.size(), roundtrip_identical ? "ok" : "BROKEN",
      !file_loaded ? "MISSING"
                   : (file_matches ? "matches" : "STALE"),
      replay_identical ? "identical" : "DIVERGED");
  std::printf("overflow: kept %zu, dropped %zu (capacity 8)\n",
              overflow_recorded, overflow_dropped);
  if (!json.WriteFile(out_path)) return 1;
  if (!trace_json.WriteFile(trace_path)) return 1;
  obs::JsonWriter breakdown_json;
  breakdown_json.Raw(breakdown_1t);
  if (!breakdown_json.WriteFile(breakdown_path)) return 1;
  if (!obs::WriteBytes(flame_path, flame_1t)) return 1;
  std::printf("wrote %s, %s, %s and %s\n", out_path.c_str(),
              trace_path.c_str(), breakdown_path.c_str(), flame_path.c_str());
  return 0;
}
