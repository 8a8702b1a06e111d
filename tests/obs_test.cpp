// Tests for the observability layer: the unified percentile / latency-pool
// arithmetic every report routes through, the metrics registry and its
// deterministic JSON snapshot, the request-lifecycle tracer (bounded
// buffers, deterministic merge, span nesting), the Chrome trace-event
// exporter, the run manifest, and -- above all -- the two contracts the
// rest of the repo depends on: tracing disabled changes nothing, and
// tracing enabled is byte-identical at any thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "latte/latte.hpp"

namespace latte {
namespace {

ModelInstance& SmallModel() {
  static ModelInstance model(ScaledDown(BertBase(), 6), 2022);
  return model;
}

ServingEngineConfig SmallEngineConfig() {
  ServingEngineConfig cfg;
  cfg.former.max_batch = 4;
  cfg.former.timeout_s = 0.02;
  cfg.workers = 2;
  cfg.threads = 1;
  cfg.inference.mode = InferenceMode::kSparseInt8;
  cfg.inference.sparse.top_k = 16;
  return cfg;
}

std::vector<TimedRequest> SmallTrace(std::size_t requests = 32,
                                     double rate = 200,
                                     std::uint64_t seed = 9) {
  PoissonTraceConfig cfg;
  cfg.arrival_rate_rps = rate;
  cfg.requests = requests;
  cfg.seed = seed;
  return GeneratePoissonTrace(cfg, Mrpc());
}

// The sort-and-interpolate arithmetic that was duplicated across
// serve/report, cluster/accounting and adapt/controller before
// obs/percentiles unified it.  Recorded baselines depend on it bit
// for bit, so the unified helper must reproduce it exactly.
double LegacyPercentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0;
  const double pos = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

// ------------------------------------------------------------ percentiles --

TEST(PercentilesTest, MatchesLegacyArithmeticBitForBit) {
  Rng rng(7);
  std::vector<double> sample;
  for (int i = 0; i < 257; ++i) sample.push_back(rng.NextUniform() * 3.0);
  std::sort(sample.begin(), sample.end());
  for (const double p : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(obs::PercentileOfSorted(sample, p), LegacyPercentile(sample, p));
  }
}

TEST(PercentilesTest, EmptyAndSingleton) {
  EXPECT_EQ(obs::PercentileOfSorted({}, 0.99), 0.0);
  EXPECT_EQ(obs::PercentileOfSorted({2.5}, 0.0), 2.5);
  EXPECT_EQ(obs::PercentileOfSorted({2.5}, 1.0), 2.5);
}

TEST(PercentilesTest, WindowSortsAndTruncates) {
  // The controller's rolling view: unsorted ring contents, only the first
  // `count` entries are live.
  const std::vector<double> window = {0.3, 0.1, 0.2, 99.0, 99.0};
  EXPECT_EQ(obs::PercentileOfWindow(window, 3, 0.5), 0.2);
  EXPECT_EQ(obs::PercentileOfWindow(window, 3, 1.0), 0.3);
  EXPECT_EQ(obs::PercentileOfWindow(window, 0, 0.99), 0.0);
}

TEST(PercentilesTest, LatencyPoolSpanSemantics) {
  obs::LatencyPool pool;
  EXPECT_EQ(pool.span(), 0.0);
  // A batch completion alone (all members superseded) holds the span's
  // completion edge open but pools no latency.
  pool.ExtendSpan(5.0);
  EXPECT_EQ(pool.span(), 0.0);
  pool.Add(1.0, 2.0);
  pool.Add(0.5, 1.5);
  EXPECT_EQ(pool.latencies.size(), 2u);
  EXPECT_EQ(pool.span(), 5.0 - 0.5);
  pool.ExtendSpan(7.0);
  EXPECT_EQ(pool.span(), 7.0 - 0.5);
}

TEST(PercentilesTest, FixedHistogramBucketsAndFolding) {
  obs::FixedHistogram h(0.0, 1.0, 4);
  h.Record(-5.0);  // below lo -> first bucket
  h.Record(0.1);
  h.Record(0.26);
  h.Record(0.99);
  h.Record(1.0);  // at hi -> last bucket
  h.Record(42.0);
  ASSERT_EQ(h.bucket_count(), 4u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(3), 3u);
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.min(), -5.0);
  EXPECT_EQ(h.max(), 42.0);
  EXPECT_EQ(h.bucket_lo(2), 0.5);
  EXPECT_THROW(obs::FixedHistogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(obs::FixedHistogram(0.0, 1.0, 0), std::invalid_argument);
}

// --------------------------------------------------------------- registry --

TEST(RegistryTest, FindOrCreateAndAccumulate) {
  obs::MetricsRegistry reg;
  reg.counter("a.requests").Add(3);
  reg.counter("a.requests").Add(2);
  reg.gauge("a.depth").Set(7.5);
  reg.histogram("a.lat", 0, 1, 8).Record(0.5);
  EXPECT_EQ(reg.counter("a.requests").value(), 5u);
  EXPECT_EQ(reg.gauge("a.depth").value(), 7.5);
  EXPECT_EQ(reg.size(), 3u);
  // Re-registering a histogram with a different shape would corrupt the
  // recorded distribution -- it throws instead.
  EXPECT_NO_THROW(reg.histogram("a.lat", 0, 1, 8));
  EXPECT_THROW(reg.histogram("a.lat", 0, 2, 8), std::invalid_argument);
}

TEST(RegistryTest, SnapshotIndependentOfRegistrationOrder) {
  obs::MetricsRegistry a;
  a.counter("z").Add(1);
  a.gauge("m").Set(2);
  a.counter("b").Add(3);
  obs::MetricsRegistry b;
  b.counter("b").Add(3);
  b.counter("z").Add(1);
  b.gauge("m").Set(2);
  EXPECT_EQ(a.ToJson(), b.ToJson());
}

TEST(RegistryTest, SnapshotIsWellFormedJson) {
  obs::MetricsRegistry reg;
  reg.counter("c\"quoted\"").Add(1);
  reg.gauge("g").Set(0.1);
  reg.histogram("h", 0, 1, 2).Record(0.7);
  const search::JsonValue doc = search::ParseJson(reg.ToJson());
  ASSERT_NE(doc.Find("counters"), nullptr);
  ASSERT_NE(doc.Find("gauges"), nullptr);
  const search::JsonValue* h = doc.Find("histograms")->Find("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->Find("total")->number, 1.0);
  ASSERT_EQ(h->Find("counts")->array.size(), 2u);
  EXPECT_EQ(h->Find("counts")->array[1].number, 1.0);
  // %.17g gauges round-trip the exact double.
  EXPECT_EQ(doc.Find("gauges")->Find("g")->number, 0.1);
}

// ----------------------------------------------------------------- tracer --

TEST(TracerTest, BoundedBufferCountsOverflow) {
  obs::TraceBuffer buf(4);
  for (int i = 0; i < 10; ++i) {
    obs::TraceEvent e;
    e.begin_s = e.end_s = static_cast<double>(i);
    buf.Record(e);
  }
  EXPECT_EQ(buf.events().size(), 4u);  // keeps the first `capacity`
  EXPECT_EQ(buf.dropped(), 6u);
  EXPECT_EQ(buf.events()[3].begin_s, 3.0);
  buf.Clear();
  EXPECT_EQ(buf.events().size(), 0u);
  EXPECT_EQ(buf.dropped(), 0u);
}

TEST(TracerTest, MergedIsTimeOrderedAndStablePerTrack) {
  obs::TraceConfig cfg;
  cfg.enabled = true;
  obs::Tracer tracer(cfg);
  tracer.RegisterTrack(2, "late");
  tracer.RegisterTrack(0, "early");
  auto record = [&](std::uint32_t track, double t, std::uint64_t id) {
    obs::TraceEvent e;
    e.begin_s = e.end_s = t;
    e.id = id;
    e.track = track;
    tracer.Record(e);
  };
  record(2, 1.0, 0);
  record(0, 1.0, 1);  // same instant: lower track id wins the tie
  record(0, 1.0, 2);  // same track + instant: program order preserved
  record(2, 0.5, 3);
  const auto merged = tracer.Merged();
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].id, 3u);
  EXPECT_EQ(merged[1].id, 1u);
  EXPECT_EQ(merged[2].id, 2u);
  EXPECT_EQ(merged[3].id, 0u);
  EXPECT_THROW(record(5, 0.0, 0), std::invalid_argument);  // unregistered
}

TEST(TracerTest, ConfigValidation) {
  obs::TraceConfig cfg;
  cfg.enabled = true;
  cfg.buffer_capacity = 0;
  EXPECT_FALSE(obs::CheckTraceConfig(cfg).empty());
  ServingEngineConfig engine = SmallEngineConfig();
  engine.trace = cfg;
  EXPECT_TRUE(HasIssueFor(CheckServingEngineConfig(engine),
                          "trace.buffer_capacity"));
}

// ----------------------------------------------------- engine instrumented --

TEST(EngineTraceTest, DisabledLeavesRunBitExact) {
  const auto trace = SmallTrace(48);
  ServingEngineConfig plain = SmallEngineConfig();
  ServingEngineConfig traced = SmallEngineConfig();
  traced.trace.enabled = true;

  ServingEngine a(SmallModel(), plain);
  ServingEngine b(SmallModel(), traced);
  const ServingResult ra = a.Replay(trace);
  const ServingResult rb = b.Replay(trace);

  EXPECT_EQ(a.tracer(), nullptr);
  ASSERT_NE(b.tracer(), nullptr);
  EXPECT_FALSE(b.tracer()->Merged().empty());

  ASSERT_EQ(ra.batches.size(), rb.batches.size());
  for (std::size_t i = 0; i < ra.batches.size(); ++i) {
    EXPECT_EQ(ra.batches[i].indices, rb.batches[i].indices);
  }
  EXPECT_EQ(ra.report().mean_latency_s, rb.report().mean_latency_s);
  EXPECT_EQ(ra.report().p99_latency_s, rb.report().p99_latency_s);
  EXPECT_EQ(ra.report().throughput_rps, rb.report().throughput_rps);
  ASSERT_EQ(ra.outputs.size(), rb.outputs.size());
  for (std::size_t i = 0; i < ra.outputs.size(); ++i) {
    ASSERT_EQ(ra.outputs[i].rows(), rb.outputs[i].rows());
    for (std::size_t r = 0; r < ra.outputs[i].rows(); ++r) {
      for (std::size_t c = 0; c < ra.outputs[i].cols(); ++c) {
        ASSERT_EQ(ra.outputs[i](r, c), rb.outputs[i](r, c));
      }
    }
  }
}

TEST(EngineTraceTest, ByteIdenticalAcrossThreadCounts) {
  const auto trace = SmallTrace(64, 400);
  std::string reference_trace;
  std::string reference_metrics;
  for (const std::size_t threads : {1u, 4u}) {
    ServingEngineConfig cfg = SmallEngineConfig();
    cfg.threads = threads;
    cfg.trace.enabled = true;
    ServingEngine engine(SmallModel(), cfg);
    const ServingResult res = engine.Replay(trace);
    const std::string chrome = obs::ChromeTraceJson(*engine.tracer());
    obs::MetricsRegistry reg;
    obs::ExportServingReport(res.report(), "serve", reg);
    obs::ExportAdmissionStats(res.admission, "serve.admission", reg);
    obs::ExportTracerStats(*engine.tracer(), "serve.trace", reg);
    const std::string metrics = reg.ToJson();
    if (threads == 1) {
      reference_trace = chrome;
      reference_metrics = metrics;
    } else {
      EXPECT_EQ(chrome, reference_trace);
      EXPECT_EQ(metrics, reference_metrics);
    }
  }
}

TEST(EngineTraceTest, LifecycleSpansNestCorrectly) {
  const auto trace = SmallTrace(40, 300);
  ServingEngineConfig cfg = SmallEngineConfig();
  cfg.trace.enabled = true;
  ServingEngine engine(SmallModel(), cfg);
  const ServingResult res = engine.Replay(trace);
  const auto merged = engine.tracer()->Merged();

  std::vector<const obs::TraceEvent*> admits(trace.size(), nullptr);
  std::vector<const obs::TraceEvent*> waits(trace.size(), nullptr);
  std::vector<const obs::TraceEvent*> completes(trace.size(), nullptr);
  std::vector<const obs::TraceEvent*> services(res.batches.size(), nullptr);
  std::size_t service_count = 0;
  for (const obs::TraceEvent& e : merged) {
    switch (e.kind) {
      case obs::SpanKind::kAdmit:
        admits[e.id] = &e;
        break;
      case obs::SpanKind::kQueueWait:
        waits[e.id] = &e;
        break;
      case obs::SpanKind::kComplete:
        completes[e.id] = &e;
        break;
      case obs::SpanKind::kService:
        services[e.id] = &e;  // id is the batch ordinal
        ++service_count;
        break;
      default:
        break;
    }
  }
  ASSERT_EQ(service_count, res.batches.size());
  std::size_t traced_requests = 0;
  for (std::size_t id = 0; id < trace.size(); ++id) {
    if (waits[id] == nullptr) continue;  // rejected or untraced
    ++traced_requests;
    ASSERT_NE(admits[id], nullptr);
    ASSERT_NE(completes[id], nullptr);
    // Admission happens at arrival, which is where the queue wait opens.
    EXPECT_EQ(admits[id]->begin_s, waits[id]->begin_s);
    // The wait ends exactly when the request's batch launches...
    const auto& svc = *services[static_cast<std::size_t>(waits[id]->arg)];
    EXPECT_EQ(waits[id]->end_s, svc.begin_s);
    // ...and completion is the batch's service end, on a worker track.
    EXPECT_EQ(completes[id]->begin_s, svc.end_s);
    EXPECT_LT(svc.track, cfg.workers);  // worker tracks are [0, workers)
  }
  EXPECT_EQ(traced_requests, res.offered_ids.size());
}

TEST(EngineTraceTest, OverflowIsCountedNeverSilent) {
  ServingEngineConfig cfg = SmallEngineConfig();
  cfg.trace.enabled = true;
  cfg.trace.buffer_capacity = 2;
  ServingEngine engine(SmallModel(), cfg);
  engine.Replay(SmallTrace(48));
  ASSERT_NE(engine.tracer(), nullptr);
  EXPECT_GT(engine.tracer()->total_dropped(), 0u);
  // The drop count surfaces in the exported artifact itself.
  const search::JsonValue doc =
      search::ParseJson(obs::ChromeTraceJson(*engine.tracer()));
  EXPECT_EQ(doc.Find("otherData")->Find("dropped_events")->number,
            static_cast<double>(engine.tracer()->total_dropped()));
}

TEST(EngineTraceTest, AdaptiveRunRecordsEpochsAndEscalations) {
  AdaptiveServingConfig adapt;
  adapt.enabled = true;
  adapt.slo_p99_s = 0.05;
  adapt.epoch_s = 0.002;
  adapt.queue_ref = 4;
  adapt.tiers = {ServiceTier{16, false, 1.0}, ServiceTier{8, false, 0.95},
                 ServiceTier{4, true, 0.85}};
  ServingEngineConfig cfg = SmallEngineConfig();
  cfg.adapt = adapt;
  cfg.trace.enabled = true;
  ServingEngine engine(SmallModel(), cfg);
  engine.Replay(SmallTrace(64, 2000, 11));
  std::size_t epochs = 0;
  std::uint64_t last_epoch_id = 0;
  for (const obs::TraceEvent& e : engine.tracer()->Merged()) {
    if (e.kind != obs::SpanKind::kEpoch) continue;
    if (epochs > 0) {
      EXPECT_GT(e.id, last_epoch_id);  // strictly ordered
    }
    last_epoch_id = e.id;
    ++epochs;
  }
  EXPECT_GT(epochs, 0u);
}

// --------------------------------------------------------------- exporters --

TEST(ChromeTraceTest, DocumentIsWellFormedAndPhased) {
  ServingEngineConfig cfg = SmallEngineConfig();
  cfg.trace.enabled = true;
  ServingEngine engine(SmallModel(), cfg);
  engine.Replay(SmallTrace(32));
  const search::JsonValue doc =
      search::ParseJson(obs::ChromeTraceJson(*engine.tracer()));
  const search::JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::size_t meta = 0, complete = 0, instants = 0, async_b = 0, async_e = 0;
  for (const search::JsonValue& e : events->array) {
    const std::string& ph = e.Find("ph")->string;
    if (ph == "M") {
      ++meta;
    } else if (ph == "X") {
      ++complete;
      EXPECT_GT(e.Find("dur")->number, 0.0);
    } else if (ph == "i") {
      ++instants;
    } else if (ph == "b") {
      ++async_b;
      EXPECT_EQ(e.Find("cat")->string, "batch");
    } else if (ph == "e") {
      ++async_e;
    }
  }
  // process_name + one thread_name per track (workers + control).
  EXPECT_EQ(meta, 1u + cfg.workers + 1u);
  EXPECT_GT(complete, 0u);   // queue-wait / form spans
  EXPECT_GT(instants, 0u);   // admit / complete instants
  EXPECT_GT(async_b, 0u);    // batches as async slices
  EXPECT_EQ(async_b, async_e);
}

TEST(ExportTest, BridgesSurfaceEngineAndPoolHealth) {
  ServingEngineConfig cfg = SmallEngineConfig();
  cfg.cache.enabled = true;
  cfg.cache.key_policy = CacheKeyPolicy::kRequestId;
  ServingEngine engine(SmallModel(), cfg);
  // Repeats with shared ids so the cache records hits or coalesces.
  std::vector<TimedRequest> trace;
  for (std::size_t i = 0; i < 24; ++i) {
    trace.push_back({0.005 * static_cast<double>(i), 24, i % 4});
  }
  const ServingResult res = engine.Replay(trace);

  obs::MetricsRegistry reg;
  obs::ExportServingReport(res.report(), "serve", reg);
  obs::ExportAdmissionStats(res.admission, "serve.admission", reg);
  obs::ExportCacheStats(res.cache, "serve.cache", reg);
  obs::ExportThreadPoolStats(engine.runner().pool(), "serve.pool", reg);

  EXPECT_EQ(reg.counter("serve.requests").value(),
            static_cast<std::uint64_t>(res.report().requests));
  EXPECT_EQ(reg.counter("serve.admission.offered").value(), trace.size());
  EXPECT_EQ(reg.counter("serve.cache.lookups").value(),
            static_cast<std::uint64_t>(res.cache.lookups));
  EXPECT_GT(reg.counter("serve.cache.hits").value() +
                reg.counter("serve.cache.coalesced").value(),
            0u);
  EXPECT_EQ(reg.gauge("serve.cache.hit_rate").value(),
            CacheHitRate(res.cache));
  EXPECT_EQ(reg.gauge("serve.pool.size").value(),
            static_cast<double>(engine.runner().pool().size()));
  EXPECT_EQ(reg.counter("serve.pool.task_errors").value(), 0u);
  EXPECT_EQ(reg.gauge("serve.pool.queue_depth").value(), 0.0);  // idle
}

TEST(ManifestTest, RoundTripsConfigSeedAndExactMetrics) {
  obs::RunManifest manifest;
  manifest.name = "obs_test/roundtrip";
  manifest.seed = 123456789012345ull;
  search::DesignPoint dp;
  dp.replicas.push_back(search::ReplicaDesign{});
  manifest.config_json = search::DesignPointToJson(dp);
  manifest.metrics = {{"p99_latency_s", 0.123456789123456789},
                      {"throughput_rps", 3141.5926535897932}};
  const search::JsonValue doc =
      search::ParseJson(obs::RunManifestJson(manifest));
  EXPECT_EQ(doc.Find("manifest_version")->number, 1.0);
  EXPECT_EQ(doc.Find("name")->string, manifest.name);
  EXPECT_EQ(doc.Find("seed")->number,
            static_cast<double>(manifest.seed));
  ASSERT_NE(doc.Find("host")->Find("compiler"), nullptr);
  // The spliced config is structural JSON, not an escaped string.
  ASSERT_NE(doc.Find("config")->Find("replicas"), nullptr);
  // %.17g metrics recover the exact doubles.
  EXPECT_EQ(doc.Find("metrics")->Find("p99_latency_s")->number,
            manifest.metrics[0].second);
  EXPECT_EQ(doc.Find("metrics")->Find("throughput_rps")->number,
            manifest.metrics[1].second);
}

TEST(JsonWriterTest, WriteFileReportsAFullDisk) {
  // /dev/full opens and buffers the write; only the close's flush fails.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  obs::JsonWriter json;
  json.BeginObject().Key("k").Value(1.0).EndObject();
  EXPECT_FALSE(json.WriteFile("/dev/full"));
  // The byte writer under WriteFile (the flame files use it directly).
  EXPECT_FALSE(obs::WriteBytes("/dev/full", "all;a 1\n"));
}

TEST(JsonWriterTest, WriteBytesWritesExactlyTheBytes) {
  const std::string path = ::testing::TempDir() + "write_bytes_test.txt";
  const std::string bytes = "all;a 1\nall;b 2\n";
  ASSERT_TRUE(obs::WriteBytes(path, bytes));
  std::ifstream in(path, std::ios::binary);
  const std::string back((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(back, bytes);  // no newline added
  EXPECT_FALSE(obs::WriteBytes(::testing::TempDir() + "no/such/dir", bytes));
}

// ---------------------------------------------------------------- cluster --

TEST(ClusterTraceTest, FleetTracerSpansReplicasOnDistinctTracks) {
  ClusterConfig cfg;
  for (const char* name : {"r0", "r1"}) {
    ReplicaConfig rep;
    rep.name = name;
    rep.engine = SmallEngineConfig();
    rep.engine.execute = false;  // policy-sweep mode: accounting only
    cfg.replicas.push_back(rep);
  }
  cfg.router.policy = RouterPolicy::kRoundRobin;
  cfg.trace.enabled = true;
  ServingCluster cluster(SmallModel(), cfg);
  ASSERT_NE(cluster.tracer(), nullptr);

  const auto tracks = cluster.tracer()->tracks();
  // Each replica owns workers + 1 tracks, laid out replica-major.
  ASSERT_EQ(tracks.size(), 2 * (SmallEngineConfig().workers + 1));
  EXPECT_EQ(tracks.front().second, "r0/worker 0");
  EXPECT_EQ(tracks.back().second, "r1/control");

  cluster.Replay(SmallTrace(40));
  bool saw_r0 = false, saw_r1 = false;
  const std::uint32_t r1_base =
      static_cast<std::uint32_t>(SmallEngineConfig().workers) + 1;
  for (const obs::TraceEvent& e : cluster.tracer()->Merged()) {
    (e.track < r1_base ? saw_r0 : saw_r1) = true;
  }
  EXPECT_TRUE(saw_r0);
  EXPECT_TRUE(saw_r1);  // round-robin touches both replicas
}

TEST(ClusterTraceTest, RejectsPerReplicaTracerConflict) {
  ClusterConfig cfg;
  cfg.replicas.push_back({});
  cfg.replicas[0].engine = SmallEngineConfig();
  cfg.replicas[0].engine.trace.enabled = true;
  cfg.trace.enabled = true;
  EXPECT_TRUE(HasIssueFor(CheckClusterConfig(cfg),
                          "replica[0].engine.trace.enabled"));
}

// ------------------------------------------------------- percentile edges --

TEST(PercentilesTest, AllEqualSamplesInterpolateExactly) {
  const std::vector<double> equal(17, 3.25);
  for (const double p : {0.0, 0.25, 0.5, 0.95, 0.99, 1.0}) {
    const double v = obs::PercentileOfSorted(equal, p);
    EXPECT_EQ(v, 3.25);
    EXPECT_FALSE(std::isnan(v));
  }
}

TEST(PercentilesTest, ExtremesAreExactAndNaNFree) {
  // p = 0 and p = 1 must return the end samples themselves (no
  // interpolation arithmetic, no read past the end, no NaN).
  EXPECT_FALSE(std::isnan(obs::PercentileOfSorted({}, 0.0)));
  EXPECT_FALSE(std::isnan(obs::PercentileOfSorted({}, 1.0)));
  const std::vector<double> two = {1.0, 2.0};
  EXPECT_EQ(obs::PercentileOfSorted(two, 0.0), 1.0);
  EXPECT_EQ(obs::PercentileOfSorted(two, 1.0), 2.0);
  EXPECT_FALSE(std::isnan(obs::PercentileOfSorted(two, 0.0)));
  EXPECT_FALSE(std::isnan(obs::PercentileOfSorted(two, 1.0)));
}

// ------------------------------------------------------------ attribution --

TEST(AttributionTest, BatchedRunIsGapFreeAndMatchesReport) {
  ServingEngineConfig cfg = SmallEngineConfig();
  cfg.trace.enabled = true;
  ServingEngine engine(SmallModel(), cfg);
  const ServingResult res = engine.Replay(SmallTrace(48, 400));

  const obs::Attribution att = obs::AttributeTracer(*engine.tracer());
  EXPECT_EQ(att.requests.size(), res.report().requests);
  EXPECT_EQ(att.unattributed, 0u);
  EXPECT_EQ(att.rejected, 0u);
  for (const auto& r : att.requests) {
    EXPECT_EQ(r.path, obs::RequestPath::kBatched);
    EXPECT_TRUE(r.gap_free()) << "request " << r.offered_id;
    // The strong form: the left-to-right stage sum reconstructs the
    // end-to-end latency bitwise -- no unattributed remainder.
    EXPECT_EQ(r.attributed_s(), r.total_s()) << "request " << r.offered_id;
    ASSERT_GE(r.segments.size(), 2u);
    EXPECT_EQ(r.segments.front().begin_s, r.arrival_s);
    EXPECT_EQ(r.segments.back().end_s, r.done_s);
  }

  const obs::LatencyBreakdown bd = obs::ComputeBreakdown(att);
  EXPECT_TRUE(bd.gap_free);
  EXPECT_TRUE(bd.reconstruction_exact);
  EXPECT_EQ(bd.max_gap_s, 0.0);
  EXPECT_TRUE(obs::BreakdownMatchesReport(bd, res.report()));
  ASSERT_EQ(bd.stages.size(), 2u);  // queue_wait + service, nothing else
  EXPECT_EQ(bd.stages[0].stage, obs::Stage::kQueueWait);
  EXPECT_EQ(bd.stages[1].stage, obs::Stage::kService);
  EXPECT_TRUE(bd.groups.empty());
  EXPECT_FALSE(bd.critical_path.empty());
}

TEST(AttributionTest, CacheHitAndCoalescePathsAreCovered) {
  ServingEngineConfig cfg = SmallEngineConfig();
  cfg.trace.enabled = true;
  cfg.cache.enabled = true;
  cfg.cache.key_policy = CacheKeyPolicy::kRequestId;
  // Popularity-skewed identities (same id => same length) so the cache
  // actually hits and coalesces.
  ZipfTraceConfig zipf;
  zipf.arrival_rate_rps = 300;
  zipf.requests = 48;
  zipf.population = 8;
  zipf.skew = 1.1;
  zipf.seed = 21;
  const auto trace = GenerateZipfTrace(zipf, Mrpc());
  ServingEngine engine(SmallModel(), cfg);
  const ServingResult res = engine.Replay(trace);
  ASSERT_GT(res.cache.hits, 0u);
  ASSERT_GT(res.cache.coalesced, 0u);

  const obs::Attribution att = obs::AttributeTracer(*engine.tracer());
  EXPECT_EQ(att.unattributed, 0u);
  std::size_t hits = 0;
  std::size_t coalesced = 0;
  for (const auto& r : att.requests) {
    EXPECT_TRUE(r.gap_free()) << "request " << r.offered_id;
    EXPECT_EQ(r.attributed_s(), r.total_s()) << "request " << r.offered_id;
    hits += r.path == obs::RequestPath::kCacheHit ? 1 : 0;
    coalesced += r.path == obs::RequestPath::kCoalesced ? 1 : 0;
  }
  EXPECT_EQ(hits, res.cache.hits);
  EXPECT_EQ(coalesced, res.cache.coalesced);
  EXPECT_TRUE(
      obs::BreakdownMatchesReport(obs::ComputeBreakdown(att), res.report()));
}

TEST(AttributionTest, EscalatedRequestsTileAcrossBothPasses) {
  ServingEngineConfig cfg = SmallEngineConfig();
  cfg.former.timeout_s = 0.005;
  cfg.workers = 1;
  cfg.threads = 2;
  cfg.execute = false;
  cfg.trace.enabled = true;
  cfg.adapt.enabled = true;
  cfg.adapt.slo_p99_s = 0.05;
  cfg.adapt.tiers = {ServiceTier{16, false, 1.0}, ServiceTier{8, false, 0.95},
                     ServiceTier{4, true, 0.85}};
  // Degrade almost immediately and distrust every first pass (the
  // adapt_test escalation recipe), so re-runs are guaranteed to fire.
  cfg.adapt.epoch_s = 0.0002;
  cfg.adapt.low_band = 0.0;
  cfg.adapt.high_band = 1e-6;
  cfg.adapt.queue_ref = 1;
  cfg.adapt.escalate_margin = 1.0;
  ServingEngine engine(SmallModel(), cfg);
  std::vector<TimedRequest> burst;
  for (std::size_t i = 0; i < 24; ++i) {
    burst.push_back({static_cast<double>(i) * 0.001, 96});
  }
  const ServingResult res = engine.Replay(burst);
  ASSERT_EQ(res.report().tiers.size(), 3u);
  ASSERT_GT(res.report().tiers[2].escalated, 0u);

  const obs::Attribution att = obs::AttributeTracer(*engine.tracer());
  EXPECT_EQ(att.unattributed, 0u);
  std::size_t escalated = 0;
  for (const auto& r : att.requests) {
    EXPECT_TRUE(r.gap_free()) << "request " << r.offered_id;
    EXPECT_EQ(r.attributed_s(), r.total_s()) << "request " << r.offered_id;
    if (r.path != obs::RequestPath::kEscalated) continue;
    ++escalated;
    // queue_wait -> superseded first pass -> re-queue -> final service.
    ASSERT_GE(r.segments.size(), 4u);
    EXPECT_GT(
        r.stage_s[static_cast<std::size_t>(obs::Stage::kEscalatedService)],
        0.0);
  }
  EXPECT_GT(escalated, 0u);
  const obs::LatencyBreakdown bd = obs::ComputeBreakdown(att);
  EXPECT_TRUE(bd.gap_free);
  EXPECT_TRUE(obs::BreakdownMatchesReport(bd, res.report()));
}

TEST(AttributionTest, ShardCommSubSpanSplitsServiceExactly) {
  ServingEngineConfig cfg = SmallEngineConfig();
  cfg.trace.enabled = true;
  cfg.execute = false;
  cfg.backend = BackendMode::kSharded;
  cfg.shard.degree = 2;
  ServingEngine engine(SmallModel(), cfg);
  const ServingResult res = engine.Replay(SmallTrace(32, 300));

  const obs::Attribution att = obs::AttributeTracer(*engine.tracer());
  EXPECT_EQ(att.requests.size(), res.report().requests);
  EXPECT_EQ(att.unattributed, 0u);
  bool saw_comm = false;
  for (const auto& r : att.requests) {
    EXPECT_TRUE(r.gap_free()) << "request " << r.offered_id;
    EXPECT_EQ(r.attributed_s(), r.total_s()) << "request " << r.offered_id;
    saw_comm |=
        r.stage_s[static_cast<std::size_t>(obs::Stage::kShardComm)] > 0.0;
  }
  EXPECT_TRUE(saw_comm);
  const obs::LatencyBreakdown bd = obs::ComputeBreakdown(att);
  EXPECT_TRUE(bd.gap_free);
  EXPECT_TRUE(bd.reconstruction_exact);
  EXPECT_TRUE(obs::BreakdownMatchesReport(bd, res.report()));
}

TEST(AttributionTest, AnalysisArtifactsAreByteIdenticalAcrossThreads) {
  const auto trace = SmallTrace(48, 400);
  std::string reference_breakdown;
  std::string reference_flame;
  for (const std::size_t threads : {1u, 4u}) {
    ServingEngineConfig cfg = SmallEngineConfig();
    cfg.threads = threads;
    cfg.trace.enabled = true;
    ServingEngine engine(SmallModel(), cfg);
    engine.Replay(trace);
    const obs::Attribution att = obs::AttributeTracer(*engine.tracer());
    const std::string breakdown = obs::BreakdownJson(obs::ComputeBreakdown(att));
    const std::string flame = obs::CollapsedStacks(att.requests);
    if (threads == 1) {
      reference_breakdown = breakdown;
      reference_flame = flame;
      continue;
    }
    EXPECT_EQ(breakdown, reference_breakdown);
    EXPECT_EQ(flame, reference_flame);
  }
}

TEST(AttributionTest, OverflowIsReportedAsUnattributed) {
  ServingEngineConfig cfg = SmallEngineConfig();
  cfg.execute = false;
  cfg.trace.enabled = true;
  cfg.trace.buffer_capacity = 8;
  ServingEngine engine(SmallModel(), cfg);
  engine.Replay(SmallTrace(48, 400));
  ASSERT_GT(engine.tracer()->total_dropped(), 0u);

  // A truncated trace must degrade to counted unattributed requests --
  // never a throw, never a silently partial timeline passed off as whole.
  const obs::Attribution att = obs::AttributeTracer(*engine.tracer());
  EXPECT_GT(att.unattributed, 0u);
  EXPECT_LT(att.requests.size(), 48u);
  for (const auto& r : att.requests) {
    EXPECT_TRUE(r.gap_free()) << "request " << r.offered_id;
  }
  const obs::LatencyBreakdown bd = obs::ComputeBreakdown(att);
  EXPECT_EQ(bd.unattributed, att.unattributed);
}

TEST(AttributionTest, FlameAndCriticalPathRenderings) {
  obs::RequestAttribution r;
  r.offered_id = 42;
  r.group = "r1";
  r.path = obs::RequestPath::kBatched;
  r.arrival_s = 0.0;
  r.done_s = 0.004;
  r.segments = {{obs::Stage::kQueueWait, 0.0, 0.0021, "batch 7"},
                {obs::Stage::kService, 0.0021, 0.004, "worker 0"}};
  r.stage_s[static_cast<std::size_t>(obs::Stage::kQueueWait)] = 0.0021;
  r.stage_s[static_cast<std::size_t>(obs::Stage::kService)] = 0.004 - 0.0021;
  ASSERT_TRUE(r.gap_free());

  EXPECT_EQ(obs::CollapsedStacks({r}),
            "all;r1;batched;queue_wait 2100000\n"
            "all;r1;batched;service 1900000\n");
  EXPECT_EQ(obs::CriticalPathString(r),
            "req 42 @r1: queue_wait 2.1ms (batch 7) -> "
            "service 1.9ms (worker 0) | e2e 4ms");
  EXPECT_EQ(obs::TailRequest({}), nullptr);
}

}  // namespace
}  // namespace latte
