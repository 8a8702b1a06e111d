// Observability demo: trace a serving run and export every artifact.
//
//   $ ./example_obs_demo
//
// Replays a Poisson trace through a tracing-enabled ServingEngine, then
// writes the three observability artifacts to the working directory:
//
//   obs_demo_trace.json    -- Chrome trace-event JSON.  Open it at
//                             https://ui.perfetto.dev (or chrome://tracing)
//                             to see per-worker batch slices and per-request
//                             admit -> queue-wait -> service -> complete
//                             lifecycles on the control track.
//   obs_demo_metrics.json  -- the unified metrics-registry snapshot
//                             (admission, cache, report, pool health,
//                             tracer self-accounting), name-sorted.
//   obs_demo_manifest.json -- the run manifest: config JSON, seed, host
//                             stamp and headline metrics.
//   obs_demo_breakdown.json-- the latency attribution: every request's
//                             end-to-end latency decomposed into exact
//                             gap-free stages, per-stage percentiles,
//                             the p99 tail budget and the critical path
//                             (diff two of these with tools/trace_diff).
//   obs_demo_flame.txt     -- the same attribution as collapsed stacks;
//                             load it at https://speedscope.app or feed
//                             it to flamegraph.pl.
//   obs_demo.lattetrace    -- the request stream captured in the
//                             versioned on-disk format; replaying it
//                             reproduces this run bit for bit.
//
// Everything but the wall-clock host stamp is a deterministic function of
// the trace and the config: re-running this demo reproduces the trace,
// metrics, breakdown, flame and capture files byte for byte.

#include <cstdio>

#include "latte/latte.hpp"

int main() {
  using namespace latte;

  const ModelConfig small = ScaledDown(BertBase(), 6);
  const ModelInstance model(small, 2022);

  ServingEngineConfig cfg;
  cfg.former.max_batch = 8;
  cfg.former.timeout_s = 0.02;
  cfg.workers = 2;
  cfg.threads = 2;
  cfg.inference.mode = InferenceMode::kSparseInt8;
  cfg.inference.sparse.top_k = 30;
  cfg.cache.enabled = true;
  cfg.cache.key_policy = CacheKeyPolicy::kRequestId;
  cfg.trace.enabled = true;

  PoissonTraceConfig trace_cfg;
  trace_cfg.arrival_rate_rps = 120;
  trace_cfg.requests = 64;
  trace_cfg.seed = 7;
  auto trace = GeneratePoissonTrace(trace_cfg, Mrpc());
  // Give a slice of the stream shared content ids so the cache layer has
  // hits and coalesced followers to show in the trace.
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (i % 3 == 0) trace[i].id = i % 9;
  }

  ServingEngine engine(model, cfg);
  const ServingResult res = engine.Replay(trace);

  // Chrome trace.
  obs::JsonWriter trace_json;
  obs::WriteChromeTrace(*engine.tracer(), trace_json);
  // Every artifact is written even after one fails; any failure fails
  // the run.
  bool wrote = trace_json.WriteFile("obs_demo_trace.json");

  // Metrics snapshot.
  obs::MetricsRegistry registry;
  obs::ExportServingReport(res.report(), "serve", registry);
  obs::ExportAdmissionStats(res.admission, "serve.admission", registry);
  obs::ExportCacheStats(res.cache, "serve.cache", registry);
  obs::ExportThreadPoolStats(engine.runner().pool(), "serve.pool", registry);
  obs::ExportTracerStats(*engine.tracer(), "serve.trace", registry);
  obs::JsonWriter metrics_json;
  registry.WriteJson(metrics_json);
  wrote = metrics_json.WriteFile("obs_demo_metrics.json") && wrote;

  // Latency attribution: where each request's time went, stage by stage.
  const obs::Attribution attribution = obs::AttributeTracer(*engine.tracer());
  const obs::LatencyBreakdown breakdown = obs::ComputeBreakdown(attribution);
  obs::JsonWriter breakdown_json;
  obs::WriteBreakdownJson(breakdown, breakdown_json);
  wrote = breakdown_json.WriteFile("obs_demo_breakdown.json") && wrote;

  // Flame rendering of the same attribution (collapsed-stack format).
  const std::string flame = obs::CollapsedStacks(attribution.requests);
  wrote = obs::WriteBytes("obs_demo_flame.txt", flame) && wrote;

  // Capture the request stream for later bit-exact replay.
  wrote = CaptureTrace(trace, "obs_demo.lattetrace") && wrote;

  // Run manifest.
  obs::RunManifest manifest;
  manifest.name = "examples/obs_demo";
  manifest.seed = trace_cfg.seed;
  manifest.metrics = {{"p99_latency_s", res.report().p99_latency_s},
                      {"throughput_rps", res.report().throughput_rps},
                      {"cache_hit_rate", CacheHitRate(res.cache)}};
  obs::JsonWriter manifest_json;
  obs::WriteRunManifest(manifest, manifest_json);
  wrote = manifest_json.WriteFile("obs_demo_manifest.json") && wrote;

  const auto merged = engine.tracer()->Merged();
  std::printf("served %zu requests in %zu batches (p99 %.4fs)\n",
              res.report().requests, res.report().batches,
              res.report().p99_latency_s);
  std::printf("cache: %zu hits, %zu coalesced of %zu lookups\n",
              res.cache.hits, res.cache.coalesced, res.cache.lookups);
  std::printf("trace: %zu events on %zu tracks (%llu dropped)\n",
              merged.size(), engine.tracer()->tracks().size(),
              static_cast<unsigned long long>(
                  engine.tracer()->total_dropped()));
  std::printf(
      "attribution: %zu requests, gap-free %s, tail dominated by %s\n",
      breakdown.requests, breakdown.gap_free ? "yes" : "NO",
      obs::StageName(breakdown.tail.dominant));
  if (!breakdown.critical_path.empty()) {
    std::printf("critical path: %s\n", breakdown.critical_path.c_str());
  }
  if (!wrote) return 1;
  std::printf(
      "wrote obs_demo_trace.json, obs_demo_metrics.json, "
      "obs_demo_manifest.json,\n      obs_demo_breakdown.json, "
      "obs_demo_flame.txt, obs_demo.lattetrace\n");
  std::printf("open obs_demo_trace.json at https://ui.perfetto.dev\n");
  std::printf("open obs_demo_flame.txt at https://speedscope.app\n");
  return 0;
}
