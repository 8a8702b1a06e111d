// Cluster demo: N serving replicas behind a router.
//
//   $ ./example_cluster_demo
//
// Three acts on one request trace:
//   1. a virtual-time policy comparison (round-robin vs join-shortest-
//      queue vs least-outstanding-tokens vs length-bucketed) over a fleet
//      of padded backends -- accounting only, so the sweep is instant and
//      byte-deterministic;
//   2. a heterogeneous fleet: one length-aware accelerator replica next
//      to two slower padded replicas, where load-aware routing has to
//      learn the speed difference from queue signals alone;
//   3. real execution with a mid-stream failover: half the trace in, one
//      replica goes offline, the router redistributes, and every admitted
//      request still comes back with a computed output.

#include <cstdio>

#include "latte/latte.hpp"

int main() {
  using namespace latte;

  const auto dataset = Squad();
  const ModelConfig small = ScaledDown(BertBase(), 6);
  const ModelInstance model(small, 2022);

  PoissonTraceConfig trace_cfg;
  trace_cfg.arrival_rate_rps = 200;
  trace_cfg.requests = 160;
  trace_cfg.seed = 5;
  const auto trace = GeneratePoissonTrace(trace_cfg, dataset);

  // ---- 1. policy comparison, virtual time ------------------------------
  // Padded backends: a batch costs its longest member times its size.
  auto padded = [](double seconds_per_token, double batch_overhead_s) {
    ServiceModelSpec spec;
    spec.base = ServiceModelSpec::Base::kPadded;
    spec.seconds_per_token = seconds_per_token;
    spec.batch_overhead_s = batch_overhead_s;
    return BuildServiceModel(spec);
  };
  auto replica = [&padded] {
    ReplicaConfig rep;
    rep.engine.former.max_batch = 8;
    rep.engine.former.timeout_s = 0.05;
    rep.engine.execute = false;  // accounting only
    rep.engine.service = padded(10e-6, 1e-3);
    return rep;
  };
  std::printf("policy comparison: %zu SQuAD-length requests @ %.0f req/s, "
              "2 padded replicas\n",
              trace.size(), trace_cfg.arrival_rate_rps);
  std::printf("  %-26s %8s %6s %9s %9s %10s\n", "policy", "batches", "fill",
              "p50 (ms)", "p99 (ms)", "imbalance");
  for (RouterPolicy policy :
       {RouterPolicy::kRoundRobin, RouterPolicy::kJoinShortestQueue,
        RouterPolicy::kLeastOutstandingTokens,
        RouterPolicy::kLengthBucketed}) {
    ClusterConfig cfg;
    cfg.replicas = {replica(), replica()};
    cfg.router.policy = policy;
    cfg.router.length_edges = {152};  // SQuAD median split
    ServingCluster cluster(model, cfg);
    const ClusterResult res = cluster.Replay(trace);
    std::printf("  %-26s %8zu %6.2f %9.1f %9.1f %10.2f\n",
                RouterPolicyName(policy), res.fleet().batches,
                res.report.mean_batch_fill, res.fleet().p50_latency_s * 1e3,
                res.fleet().p99_latency_s * 1e3, res.report.request_imbalance);
  }

  // ---- 2. heterogeneous fleet: accelerator + 2 slow padded replicas ----
  // Offered near (not past) fleet capacity, where routing quality decides
  // the tail: the accelerator replica serves a batch ~1.7x faster than
  // the padded baselines, and only the load-aware policy can discover
  // that from queue signals alone.
  PoissonTraceConfig het_cfg = trace_cfg;
  het_cfg.arrival_rate_rps = 60;
  const auto het_trace = GeneratePoissonTrace(het_cfg, dataset);
  std::printf("\nheterogeneous fleet (1 length-aware accelerator + 2 slower "
              "padded baselines, %.0f req/s):\n",
              het_cfg.arrival_rate_rps);
  for (RouterPolicy policy :
       {RouterPolicy::kRoundRobin, RouterPolicy::kLeastOutstandingTokens}) {
    ClusterConfig cfg;
    ReplicaConfig accel = replica();
    accel.name = "fpga-aware";
    ServiceModelSpec accel_spec;
    accel_spec.base = ServiceModelSpec::Base::kAccelerator;
    accel_spec.model = BertBase();
    accel.engine.service = BuildServiceModel(accel_spec);
    ReplicaConfig slow = replica();
    slow.name = "padded-baseline";
    slow.engine.service = padded(120e-6, 2e-3);
    cfg.replicas = {accel, slow, slow};
    cfg.router.policy = policy;
    ServingCluster cluster(model, cfg);
    const ClusterResult res = cluster.Replay(het_trace);
    std::printf("  %-26s p99 %7.1f ms, routed", RouterPolicyName(policy),
                res.fleet().p99_latency_s * 1e3);
    for (const auto& acc : res.report.replicas) {
      std::printf(" %s=%zu", acc.name.c_str(), acc.requests);
    }
    std::printf("\n");
  }

  // ---- 3. real execution with a mid-stream failover --------------------
  ClusterConfig cfg;
  for (int i = 0; i < 2; ++i) {
    ReplicaConfig rep;
    rep.engine.former.max_batch = 6;
    rep.engine.former.timeout_s = 0.02;
    rep.engine.threads = 2;
    rep.engine.inference.mode = InferenceMode::kSparseInt8;
    rep.engine.inference.sparse.top_k = 30;
    cfg.replicas.push_back(rep);
  }
  cfg.router.policy = RouterPolicy::kJoinShortestQueue;

  PoissonTraceConfig exec_cfg;
  exec_cfg.arrival_rate_rps = 150;
  exec_cfg.requests = 32;
  exec_cfg.seed = 3;
  const auto exec_trace = GeneratePoissonTrace(exec_cfg, Mrpc());

  ServingCluster cluster(model, cfg);
  const std::size_t cut = exec_trace.size() / 2;
  for (std::size_t i = 0; i < cut; ++i) cluster.Push(exec_trace[i]);
  cluster.SetOnline(0, false);  // failover mid-stream
  for (std::size_t i = cut; i < exec_trace.size(); ++i) {
    cluster.Push(exec_trace[i]);
  }
  const ClusterResult res = cluster.Drain();

  std::size_t computed = 0;
  for (const auto& out : res.outputs) computed += out.empty() ? 0 : 1;
  std::printf("\nfailover: replica 0 offline after %zu of %zu requests\n", cut,
              exec_trace.size());
  std::printf("  admitted %zu, computed outputs %zu (no admitted request "
              "lost)\n",
              res.routing.admitted, computed);
  for (const auto& acc : res.report.replicas) {
    std::printf("  %s: %zu requests, %zu batches, busy %.0f%%%s\n",
                acc.name.c_str(), acc.requests, acc.report.batches,
                100 * acc.report.device_busy_frac,
                acc.online ? "" : "  [offline]");
  }
  return 0;
}
