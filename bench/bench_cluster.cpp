// Cluster policy benchmark: sweeps arrival rate x replica count x routing
// policy on the multi-replica ServingCluster and emits machine-readable
// JSON (BENCH_cluster.json, or argv[1]) for the CI perf-gate job.
//
// Every cell replays the same Poisson trace (per rate) through an
// accounting-only cluster -- no tensors, pure virtual time -- so every
// number is deterministic run to run.  Replicas are padded backends
// (bench::PaddedBackend): each batch costs its longest member times its
// size, which is what makes routing policy matter.  The headline the gate
// watches: length-bucketed routing must beat round-robin on batch density
// (mean batch fill) or p99 latency in at least one rate x replica cell.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/json_writer.hpp"

namespace latte {
namespace {

ClusterConfig MakeCluster(std::size_t replicas, RouterPolicy policy) {
  ClusterConfig cfg;
  for (std::size_t i = 0; i < replicas; ++i) {
    ReplicaConfig rep;
    // A 50 ms window at the swept rates forms capacity-sealed batches --
    // the regime where within-batch length spread (padding waste) is what
    // separates the routing policies.
    rep.engine.former.max_batch = 8;
    rep.engine.former.timeout_s = 0.05;
    rep.engine.workers = 1;
    rep.engine.execute = false;  // virtual-time policy sweep
    rep.engine.service = bench::PaddedBackend();
    cfg.replicas.push_back(rep);
  }
  cfg.router.policy = policy;
  // One bucket per replica, split at the quantiles of the SQuAD length
  // fit (median 152, quartiles ~105/219), so buckets keep lengths
  // together without starving any home replica.
  cfg.router.length_edges =
      replicas >= 4 ? std::vector<std::size_t>{105, 152, 219}
                    : std::vector<std::size_t>{152};
  return cfg;
}

struct Cell {
  double rate = 0;
  std::size_t replicas = 0;
  RouterPolicy policy = RouterPolicy::kRoundRobin;
  ClusterResult result;
};

}  // namespace
}  // namespace latte

int main(int argc, char** argv) {
  using namespace latte;
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_cluster.json";

  const auto dataset = Squad();
  // Accounting-only mode never touches the tensors, so a tiny model keeps
  // construction cheap; only its existence is required by the replicas.
  const ModelInstance model(ScaledDown(BertBase(), 6), 2022);

  const std::size_t requests = 192;
  const std::vector<double> rates = {100, 200, 400};
  const std::vector<std::size_t> fleet_sizes = {2, 4};
  const std::vector<RouterPolicy> policies = {
      RouterPolicy::kRoundRobin, RouterPolicy::kJoinShortestQueue,
      RouterPolicy::kLeastOutstandingTokens, RouterPolicy::kLengthBucketed};

  std::vector<Cell> cells;
  for (double rate : rates) {
    PoissonTraceConfig trace_cfg;
    trace_cfg.arrival_rate_rps = rate;
    trace_cfg.requests = requests;
    trace_cfg.seed = 7;
    const auto trace = GeneratePoissonTrace(trace_cfg, dataset);
    for (std::size_t fleet : fleet_sizes) {
      for (RouterPolicy policy : policies) {
        ServingCluster cluster(model, MakeCluster(fleet, policy));
        Cell cell;
        cell.rate = rate;
        cell.replicas = fleet;
        cell.policy = policy;
        cell.result = cluster.Replay(trace);
        cells.push_back(std::move(cell));
      }
    }
  }

  // Length-bucketed vs round-robin per (rate, fleet) cell.
  struct Comparison {
    double rate = 0;
    std::size_t replicas = 0;
    double fill_gain = 0;  ///< bucketed fill / round-robin fill
    double p99_ratio = 0;  ///< bucketed p99 / round-robin p99
    bool wins = false;
  };
  std::vector<Comparison> comparisons;
  bool bucketed_beats_rr = false;
  for (double rate : rates) {
    for (std::size_t fleet : fleet_sizes) {
      const Cell* rr = nullptr;
      const Cell* bucketed = nullptr;
      for (const Cell& c : cells) {
        if (c.rate != rate || c.replicas != fleet) continue;
        if (c.policy == RouterPolicy::kRoundRobin) rr = &c;
        if (c.policy == RouterPolicy::kLengthBucketed) bucketed = &c;
      }
      Comparison cmp;
      cmp.rate = rate;
      cmp.replicas = fleet;
      cmp.fill_gain = bucketed->result.report.mean_batch_fill /
                      rr->result.report.mean_batch_fill;
      cmp.p99_ratio = bucketed->result.fleet().p99_latency_s /
                      rr->result.fleet().p99_latency_s;
      // A win needs margin so libm-level float drift between hosts cannot
      // flip the gated summary bit.
      cmp.wins = cmp.fill_gain >= 1.01 || cmp.p99_ratio <= 0.99;
      bucketed_beats_rr = bucketed_beats_rr || cmp.wins;
      comparisons.push_back(cmp);
    }
  }

  obs::JsonWriter json;
  json.BeginObject();
  json.Key("bench").Value("cluster");
  json.Key("schema_version").Value(std::size_t{1});
  StampHost(json);
  json.Key("dataset").Value(dataset.name);
  json.Key("requests").Value(requests);
  json.Key("service_model").Value("padded");
  json.Key("results");
  json.BeginArray();

  TextTable table({"arrival (req/s)", "replicas", "policy", "batches",
                   "fill", "p50 (ms)", "p99 (ms)", "throughput (req/s)",
                   "imbalance", "rerouted"});
  for (const Cell& cell : cells) {
    const ClusterReport& rep = cell.result.report;
    const ServingReport& fleet = rep.fleet;
    json.BeginObject();
    json.Key("arrival_rps").Value(cell.rate);
    json.Key("replicas").Value(cell.replicas);
    json.Key("policy").Value(RouterPolicyName(cell.policy));
    json.Key("requests").Value(fleet.requests);
    json.Key("batches").Value(fleet.batches);
    json.Key("admitted").Value(cell.result.routing.admitted);
    json.Key("rejected").Value(cell.result.routing.rejected);
    json.Key("rerouted").Value(cell.result.routing.rerouted);
    json.Key("mean_batch").Value(fleet.mean_batch_size);
    json.Key("mean_batch_fill").Value(rep.mean_batch_fill);
    json.Key("p50_ms").Value(fleet.p50_latency_s * 1e3);
    json.Key("p95_ms").Value(fleet.p95_latency_s * 1e3);
    json.Key("p99_ms").Value(fleet.p99_latency_s * 1e3);
    json.Key("throughput_rps").Value(fleet.throughput_rps);
    json.Key("busy_frac").Value(fleet.device_busy_frac);
    json.Key("request_imbalance").Value(rep.request_imbalance);
    json.Key("token_imbalance").Value(rep.token_imbalance);
    json.EndObject();

    table.AddRow({Fmt(cell.rate, 0), std::to_string(cell.replicas),
                  RouterPolicyName(cell.policy),
                  std::to_string(fleet.batches), Fmt(rep.mean_batch_fill, 2),
                  Fmt(fleet.p50_latency_s * 1e3, 1),
                  Fmt(fleet.p99_latency_s * 1e3, 1),
                  Fmt(fleet.throughput_rps, 1), Fmt(rep.request_imbalance, 2),
                  std::to_string(cell.result.routing.rerouted)});
  }
  json.EndArray();

  json.Key("comparisons");
  json.BeginArray();
  for (const auto& cmp : comparisons) {
    json.BeginObject();
    json.Key("arrival_rps").Value(cmp.rate);
    json.Key("replicas").Value(cmp.replicas);
    json.Key("fill_gain").Value(cmp.fill_gain);
    json.Key("p99_ratio").Value(cmp.p99_ratio);
    json.Key("bucketed_wins").Value(cmp.wins);
    json.EndObject();
  }
  json.EndArray();
  json.Key("bucketed_beats_round_robin").Value(bucketed_beats_rr);
  json.EndObject();

  std::printf(
      "== ServingCluster sweep: rate x replicas x routing policy ==\n\n");
  std::printf("%s\n", table.Render().c_str());
  std::printf("length-bucketed vs round-robin:\n");
  for (const auto& cmp : comparisons) {
    std::printf(
        "  rate %3.0f x %zu replicas: fill gain %.2fx, p99 ratio %.2f%s\n",
        cmp.rate, cmp.replicas, cmp.fill_gain, cmp.p99_ratio,
        cmp.wins ? "  [win]" : "");
  }
  // Write the JSON before any failure exit: when the headline regresses,
  // CI still gets the per-cell numbers as an artifact to debug with.
  if (!json.WriteFile(out_path)) return 1;
  std::printf("wrote %s\n", out_path.c_str());
  if (!bucketed_beats_rr) {
    std::fprintf(stderr,
                 "error: length-bucketed routing beat round-robin in no "
                 "cell; the policy (or this sweep) regressed\n");
    return 1;
  }
  return 0;
}
