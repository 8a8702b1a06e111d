// latte_bench: the end-to-end benchmark of the LATTE system.
//
//   latte_bench --workload <name> --seed <n> --seconds <s> --out <dir>
//               [--trace <dir>]
//
// Untraced, it measures the end-to-end metrics with tracing off; with
// --trace it is the separate traced run that reports the per-layer
// metrics and writes <trace-dir>/<workload>.trace.json (Chrome trace) and
// <workload>.layers.json (per-span totals).  Either way it prints one
// "workload metric value unit" line per metric and writes
// <out>/<workload>.json.  A failed correctness check exits 1.  See
// README.md for the workloads and metrics.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <span>
#include <stdexcept>
#include <string>

#include "harness.hpp"

namespace latte::e2e {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Reported by every workload of an untraced run.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"peak_rss_mb", "MiB"},
    {"tokens_per_s", "tokens/s"}, {"sim_mean_ms", "ms"},
    {"sim_p95_ms", "ms"},       {"goodput_rps", "req/s"},
    {"served_frac", "frac"},    {"accuracy", "cosine"},
};

/// Reported by every workload of a traced run.  A workload reports 0 for
/// a layer it never calls (no time unit here can be such a 0).
constexpr MetricDef kPerLayer[] = {
    {"nn.qkv_share", "frac"},
    {"nn.out_proj_share", "frac"},
    {"nn.ffn1_share", "frac"},
    {"nn.ffn2_share", "frac"},
    {"nn.int8_gops", "GOP/s"},
    {"nn.layernorm_share", "frac"},
    {"nn.gelu_share", "frac"},
    {"nn.heads_share", "frac"},
    {"core.atsel_quantize_share", "frac"},
    {"core.atsel_lut_share", "frac"},
    {"core.atsel_topk_share", "frac"},
    {"core.lut_gops", "GOP/s"},
    {"core.topk_insert_frac", "frac"},
    {"core.gather_share", "frac"},
    {"core.fused_share", "frac"},
    {"core.context_share", "frac"},
    {"core.attention_share", "frac"},
    {"runtime.overhead_frac", "frac"},
    {"serve.push_share", "frac"},
    {"serve.drain_share", "frac"},
    {"fpga.price_calls", "count"},
    {"fpga.price_share", "frac"},
    {"serve.p99_queue_frac", "frac"},
    {"serve.p99_service_frac", "frac"},
    {"serve.mean_batch", "count"},
    {"serve.busy_frac", "frac"},
    {"serve.peak_queue", "count"},
    {"cache.hit_frac", "frac"},
    {"cache.coalesced_frac", "frac"},
    {"cache.evictions", "count"},
    {"cache.peak_mb", "MiB"},
    {"cache.hit_push_share", "frac"},
    {"cache.miss_push_share", "frac"},
    {"adapt.probe_share", "frac"},
    {"adapt.probe_calls", "count"},
    {"adapt.degraded_frac", "frac"},
    {"adapt.escalated", "count"},
    {"adapt.max_level", "count"},
    {"obs.trace_overhead_frac", "frac"},
    {"obs.dropped_spans", "count"},
    {"trace.coverage_frac", "frac"},
    {"trace.overhead_frac", "frac"},
    {"trace.bit_exact", "bool"},
    {"trace.wall_ms", "ms"},
    {"workload.gen_ms", "ms"},
};

const std::set<std::string> kWorkloads = {"encode-short", "encode-long",
                                          "serve-squad", "serve-zipf",
                                          "serve-ramp"};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "latte_bench: %s\nusage: latte_bench --workload <name> --seed "
               "<n> --seconds <s> --out <dir> [--trace <dir>]\nworkloads: "
               "encode-short encode-long serve-squad serve-zipf serve-ramp\n",
               why);
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options opts;
  bool have_seed = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && value[0] != '-' && *end == '\0';
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opts.seconds > 0) || opts.seconds > 3600) {
        Usage("--seconds must be a number in (0, 3600]");
      }
    } else if (flag == "--out") {
      opts.out_dir = value;
    } else if (flag == "--trace") {
      opts.trace_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (kWorkloads.count(opts.workload) == 0) Usage("unknown --workload");
  if (!have_seed) Usage("--seed must be a non-negative integer");
  if (opts.out_dir.empty()) Usage("--out is required");
  return opts;
}

/// Checks the workload reported exactly the metrics of its table, in the
/// table's units; per-layer metrics it does not report are layers it
/// never calls and read 0.  Returns the metrics in table order.
std::vector<RunResult::Metric> Complete(const RunResult& r, bool traced) {
  const auto defs = traced ? std::span<const MetricDef>(kPerLayer)
                           : std::span<const MetricDef>(kEndToEnd);
  std::vector<RunResult::Metric> out;
  std::size_t matched = 0;
  for (const MetricDef& def : defs) {
    RunResult::Metric m{def.name, 0, def.unit};
    bool found = false;
    for (const RunResult::Metric& got : r.metrics) {
      if (got.name != def.name) continue;
      if (got.unit != def.unit) {
        throw std::logic_error("metric " + got.name + " reported in " +
                               got.unit + ", table says " + def.unit);
      }
      m.value = got.value;
      found = true;
      ++matched;
    }
    if (!found && !traced) {
      throw std::logic_error(std::string("missing metric ") + def.name);
    }
    out.push_back(m);
  }
  if (matched != r.metrics.size()) {
    throw std::logic_error("a metric outside the table, or twice, was reported");
  }
  return out;
}

void WriteJson(const Options& opts, const RunResult& r,
               const std::vector<RunResult::Metric>& metrics,
               const std::string& path) {
  obs::JsonWriter json;
  json.BeginObject();
  json.Key("bench").Value("latte_e2e");
  json.Key("schema_version").Value(std::size_t{1});
  obs::StampHost(json);
  json.Key("workload").Value(opts.workload);
  json.Key("mode").Value(opts.traced() ? "traced" : "untraced");
  json.Key("seed").Value(static_cast<std::size_t>(opts.seed));
  json.Key("seconds").ValueExact(opts.seconds);
  json.Key("ops_attempted").Value(r.attempted);
  json.Key("ops_failed").Value(r.failed);
  json.Key("per_layer_stale").Value(r.per_layer_stale);
  json.Key("samples");
  json.BeginObject();
  for (const auto& [name, count] : r.samples) json.Key(name).Value(count);
  json.EndObject();
  json.Key("checks");
  json.BeginObject();
  for (const auto& [name, ok] : r.checks) json.Key(name).Value(ok);
  json.EndObject();
  json.Key("info");
  json.BeginObject();
  for (const auto& [name, value] : r.info) json.Key(name).ValueExact(value);
  json.EndObject();
  json.Key("metrics");
  json.BeginObject();
  for (const RunResult::Metric& m : metrics) {
    json.Key(m.name);
    json.BeginObject();
    json.Key("value").ValueExact(m.value);
    json.Key("unit").Value(m.unit);
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  if (!json.WriteFile(path)) throw std::runtime_error("cannot write " + path);
}

int Main(int argc, char** argv) {
  const Options opts = Parse(argc, argv);
  std::filesystem::create_directories(opts.out_dir);
  if (opts.traced()) std::filesystem::create_directories(opts.trace_dir);

  RunResult r = opts.workload.rfind("encode-", 0) == 0 ? RunEncode(opts)
                                                      : RunServe(opts);
  if (!opts.traced()) r.Add("peak_rss_mb", PeakRssMb(), "MiB");
  const std::vector<RunResult::Metric> metrics = Complete(r, opts.traced());

  for (const RunResult::Metric& m : metrics) {
    std::printf("%s %s %.17g %s\n", opts.workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
  }
  for (const auto& [name, ok] : r.checks) {
    if (!ok) std::fprintf(stderr, "latte_bench: check failed: %s\n", name.c_str());
  }
  const std::string path = opts.out_dir + "/" + opts.workload + ".json";
  WriteJson(opts, r, metrics, path);
  std::printf("%s ops_attempted %zu ops_failed %zu -> %s\n",
              opts.workload.c_str(), r.attempted, r.failed, path.c_str());
  return r.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace latte::e2e

int main(int argc, char** argv) {
  try {
    return latte::e2e::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "latte_bench: %s\n", e.what());
    return 1;
  }
}
