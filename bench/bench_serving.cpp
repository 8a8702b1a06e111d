// Serving engine benchmark: sweeps arrival rate x batch-forming policy on
// the functional ServingEngine and emits machine-readable JSON
// (BENCH_serving.json, or argv[1]) for the CI perf-smoke job.
//
// Each cell replays the same Poisson trace through the engine: batches are
// formed by the shared length-aware former, executed for real on the
// batched runtime (scaled-down BERT so the sweep stays fast), and
// accounted in virtual time with the accelerator service model -- so the
// virtual metrics are deterministic run to run (perf regressions show in
// `wall_s`, modeling regressions in the latency/throughput fields).

#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "obs/json_writer.hpp"

namespace latte {
namespace {

struct PolicyPoint {
  const char* name;
  BatchFormerConfig former;
};

// fifo and sorted read the same: the sparse stages take equal times, so a
// double-buffered batch prices the same in any order (DESIGN.md).
std::vector<PolicyPoint> Policies() {
  BatchFormerConfig fifo;
  fifo.max_batch = 16;
  fifo.timeout_s = 0.02;
  BatchFormerConfig sorted = fifo;
  sorted.sort_by_length = true;
  BatchFormerConfig budget = sorted;
  budget.max_tokens = 192;
  return {{"fifo", fifo}, {"sorted", sorted}, {"sorted+budget", budget}};
}

}  // namespace
}  // namespace latte

int main(int argc, char** argv) {
  using namespace latte;
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_serving.json";

  const auto dataset = Mrpc();
  const ModelConfig accel_model = BertBase();
  const ModelConfig func_model = ScaledDown(BertBase(), 6);
  const ModelInstance model(func_model, 2022);

  const std::size_t requests = 64;
  const std::size_t workers = 2;

  obs::JsonWriter json;
  json.BeginObject();
  json.Key("bench").Value("serving");
  json.Key("schema_version").Value(std::size_t{1});
  StampHost(json);
  json.Key("dataset").Value(dataset.name);
  json.Key("accel_model").Value(accel_model.name);
  json.Key("functional_model").Value(func_model.name);
  json.Key("requests").Value(requests);
  json.Key("workers").Value(workers);
  json.Key("results");
  json.BeginArray();

  TextTable table({"arrival (req/s)", "policy", "batches", "p50 (ms)",
                   "p95 (ms)", "p99 (ms)", "throughput (req/s)", "busy",
                   "exec wall (ms)"});
  for (double rate : {30.0, 90.0, 180.0}) {
    for (const auto& policy : Policies()) {
      PoissonTraceConfig trace_cfg;
      trace_cfg.arrival_rate_rps = rate;
      trace_cfg.requests = requests;
      trace_cfg.seed = 7;
      const auto trace = GeneratePoissonTrace(trace_cfg, dataset);

      ServingEngineConfig cfg;
      cfg.former = policy.former;
      cfg.workers = workers;
      cfg.threads = 2;
      cfg.inference.mode = InferenceMode::kSparseInt8;
      cfg.inference.sparse.top_k = 30;
      // The device prices each batch in dispatch order: sortedness comes
      // from the former under test, not from the device model.
      ServiceModelSpec spec;
      spec.base = ServiceModelSpec::Base::kAccelerator;
      spec.model = accel_model;
      spec.accel.sort_batch = false;
      cfg.service = BuildServiceModel(spec);

      ServingEngine engine(model, cfg);
      const ServingResult res = engine.Replay(trace);
      const ServingReport& rep = res.report();

      json.BeginObject();
      json.Key("arrival_rps").Value(rate);
      json.Key("policy").Value(policy.name);
      json.Key("requests").Value(rep.requests);
      json.Key("batches").Value(rep.batches);
      json.Key("mean_batch").Value(rep.mean_batch_size);
      json.Key("mean_ms").Value(rep.mean_latency_s * 1e3);
      json.Key("p50_ms").Value(rep.p50_latency_s * 1e3);
      json.Key("p95_ms").Value(rep.p95_latency_s * 1e3);
      json.Key("p99_ms").Value(rep.p99_latency_s * 1e3);
      json.Key("throughput_rps").Value(rep.throughput_rps);
      json.Key("busy_frac").Value(rep.device_busy_frac);
      json.Key("accepted").Value(res.admission.accepted);
      json.Key("rejected").Value(res.admission.rejected);
      json.Key("peak_queue").Value(res.admission.peak_queue);
      json.Key("exec_wall_s").Value(res.wall_s);
      json.EndObject();

      table.AddRow({Fmt(rate, 0), policy.name, std::to_string(rep.batches),
                    Fmt(rep.p50_latency_s * 1e3, 1),
                    Fmt(rep.p95_latency_s * 1e3, 1),
                    Fmt(rep.p99_latency_s * 1e3, 1),
                    Fmt(rep.throughput_rps, 1),
                    Fmt(100 * rep.device_busy_frac, 0) + "%",
                    Fmt(res.wall_s * 1e3, 1)});
    }
  }
  json.EndArray();
  json.EndObject();

  std::printf("== ServingEngine sweep: arrival rate x batch policy ==\n\n");
  std::printf("%s\n", table.Render().c_str());
  if (!json.WriteFile(out_path)) return 1;
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
