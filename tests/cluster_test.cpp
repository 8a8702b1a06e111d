// Tests for the multi-replica serving cluster: router policy rankings,
// per-field config validation, per-replica backpressure with rerouting,
// drain/failover without losing admitted work, fleet-level accounting,
// real-execution bit-exactness against a single engine replaying the same
// admitted set, and byte-identical virtual-time policy sweeps at any
// thread count.

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "latte/latte.hpp"

namespace latte {
namespace {

/// A token-linear service model: overhead + spt * sum(len).
BatchServiceModel TokenLinear(double seconds_per_token,
                              double batch_overhead_s) {
  ServiceModelSpec spec;
  spec.seconds_per_token = seconds_per_token;
  spec.batch_overhead_s = batch_overhead_s;
  return BuildServiceModel(spec);
}

/// A padded service model: overhead + spt * max(len) * |batch|.
BatchServiceModel Padded(double seconds_per_token, double batch_overhead_s) {
  ServiceModelSpec spec;
  spec.base = ServiceModelSpec::Base::kPadded;
  spec.seconds_per_token = seconds_per_token;
  spec.batch_overhead_s = batch_overhead_s;
  return BuildServiceModel(spec);
}

ModelInstance& SmallModel() {
  static ModelInstance model(ScaledDown(BertBase(), 6), 2022);
  return model;
}

ReplicaConfig SmallReplica(const std::string& name = "") {
  ReplicaConfig cfg;
  cfg.name = name;
  cfg.engine.former.max_batch = 4;
  cfg.engine.former.timeout_s = 0.02;
  cfg.engine.workers = 1;
  cfg.engine.threads = 1;
  cfg.engine.inference.mode = InferenceMode::kSparseInt8;
  cfg.engine.inference.sparse.top_k = 16;
  return cfg;
}

ClusterConfig SmallCluster(std::size_t replicas, RouterPolicy policy) {
  ClusterConfig cfg;
  for (std::size_t i = 0; i < replicas; ++i) {
    cfg.replicas.push_back(SmallReplica());
  }
  cfg.router.policy = policy;
  if (policy == RouterPolicy::kLengthBucketed) {
    cfg.router.length_edges = {32};
  }
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

// Bimodal lengths in an SSLL pattern, densely spaced so batches fill.
// (Pairs, not strict alternation: an alternating pattern lines up with a
// two-replica round-robin rotation and would bucket lengths by accident.)
std::vector<TimedRequest> BimodalTrace(std::size_t requests, double gap_s,
                                       std::size_t short_len,
                                       std::size_t long_len) {
  std::vector<TimedRequest> trace;
  for (std::size_t i = 0; i < requests; ++i) {
    trace.push_back(
        {gap_s * static_cast<double>(i), i % 4 < 2 ? short_len : long_len});
  }
  return trace;
}

// --------------------------------------------------------------- Router --

TEST(RouterTest, PolicyNames) {
  EXPECT_STREQ(RouterPolicyName(RouterPolicy::kRoundRobin), "round-robin");
  EXPECT_STREQ(RouterPolicyName(RouterPolicy::kJoinShortestQueue),
               "join-shortest-queue");
  EXPECT_STREQ(RouterPolicyName(RouterPolicy::kLeastOutstandingTokens),
               "least-outstanding-tokens");
  EXPECT_STREQ(RouterPolicyName(RouterPolicy::kLengthBucketed),
               "length-bucketed");
}

TEST(RouterTest, ValidatesConfigPerField) {
  RouterConfig cfg;
  cfg.policy = RouterPolicy::kLengthBucketed;
  // Missing edges.
  EXPECT_TRUE(HasIssueFor(CheckRouterConfig(cfg, 2), "length_edges"));
  // Zero edge.
  cfg.length_edges = {0};
  EXPECT_TRUE(HasIssueFor(CheckRouterConfig(cfg, 2), "length_edges"));
  // Not strictly increasing.
  cfg.length_edges = {64, 64};
  EXPECT_TRUE(HasIssueFor(CheckRouterConfig(cfg, 2), "length_edges"));
  cfg.length_edges = {64, 128};
  EXPECT_TRUE(CheckRouterConfig(cfg, 2).empty());
  // No replicas to route to.
  EXPECT_FALSE(CheckRouterConfig(cfg, 0).empty());
  EXPECT_THROW(Router(cfg, 0), std::invalid_argument);
}

TEST(RouterTest, RoundRobinRotatesAndSkipsOffline) {
  Router router({RouterPolicy::kRoundRobin, {}}, 3);
  std::vector<ReplicaSnapshot> fleet(3);
  const TimedRequest req{0.0, 16};
  EXPECT_EQ(router.Rank(req, fleet), (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(router.Rank(req, fleet), (std::vector<std::size_t>{1, 2, 0}));
  fleet[2].online = false;
  EXPECT_EQ(router.Rank(req, fleet), (std::vector<std::size_t>{0, 1}));
  // The cursor advanced past the offline replica's turn all the same.
  EXPECT_EQ(router.Rank(req, fleet), (std::vector<std::size_t>{0, 1}));
  fleet[0].online = false;
  fleet[1].online = false;
  EXPECT_TRUE(router.Rank(req, fleet).empty());
  router.Reset();
  fleet[0].online = fleet[1].online = fleet[2].online = true;
  EXPECT_EQ(router.Rank(req, fleet), (std::vector<std::size_t>{0, 1, 2}));
}

TEST(RouterTest, JoinShortestQueueOrdersByDepthThenIndex) {
  Router router({RouterPolicy::kJoinShortestQueue, {}}, 3);
  std::vector<ReplicaSnapshot> fleet(3);
  fleet[0].queue_depth = 5;
  fleet[1].queue_depth = 2;
  fleet[2].queue_depth = 2;
  EXPECT_EQ(router.Rank({0.0, 16}, fleet),
            (std::vector<std::size_t>{1, 2, 0}));
  fleet[1].online = false;
  EXPECT_EQ(router.Rank({0.0, 16}, fleet), (std::vector<std::size_t>{2, 0}));
}

TEST(RouterTest, LeastOutstandingTokensOrdersByTokens) {
  Router router({RouterPolicy::kLeastOutstandingTokens, {}}, 3);
  std::vector<ReplicaSnapshot> fleet(3);
  fleet[0].outstanding_tokens = 100;
  fleet[1].outstanding_tokens = 700;
  fleet[2].outstanding_tokens = 40;
  EXPECT_EQ(router.Rank({0.0, 16}, fleet),
            (std::vector<std::size_t>{2, 0, 1}));
}

TEST(RouterTest, LengthBucketedPinsBucketsToHomeReplicas) {
  RouterConfig cfg;
  cfg.policy = RouterPolicy::kLengthBucketed;
  cfg.length_edges = {32, 128};
  Router router(cfg, 2);
  EXPECT_EQ(router.BucketOf(16), 0u);
  EXPECT_EQ(router.BucketOf(32), 0u);   // edges are inclusive upper bounds
  EXPECT_EQ(router.BucketOf(33), 1u);
  EXPECT_EQ(router.BucketOf(128), 1u);
  EXPECT_EQ(router.BucketOf(129), 2u);  // catch-all bucket past the edges

  std::vector<ReplicaSnapshot> fleet(2);
  // bucket 0 -> replica 0, bucket 1 -> replica 1, bucket 2 wraps to 0.
  EXPECT_EQ(router.Rank({0.0, 16}, fleet), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(router.Rank({0.0, 64}, fleet), (std::vector<std::size_t>{1, 0}));
  EXPECT_EQ(router.Rank({0.0, 300}, fleet), (std::vector<std::size_t>{0, 1}));
  fleet[1].online = false;
  EXPECT_EQ(router.Rank({0.0, 64}, fleet), (std::vector<std::size_t>{0}));
}

// -------------------------------------------------------- Config checks --

TEST(ClusterConfigTest, ValidatesPerFieldWithReplicaContext) {
  ClusterConfig empty;
  EXPECT_TRUE(HasIssueFor(CheckClusterConfig(empty), "replicas"));

  auto bad = SmallCluster(2, RouterPolicy::kRoundRobin);
  bad.replicas[1].engine.workers = 0;
  EXPECT_TRUE(
      HasIssueFor(CheckClusterConfig(bad), "replica[1].engine.workers"));
  try {
    ServingCluster cluster(SmallModel(), bad);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("replica[1]"), std::string::npos)
        << e.what();
  }

  auto mixed = SmallCluster(2, RouterPolicy::kRoundRobin);
  mixed.replicas[1].engine.execute = false;
  EXPECT_TRUE(
      HasIssueFor(CheckClusterConfig(mixed), "replica[1].engine.execute"));

  auto bad_router = SmallCluster(2, RouterPolicy::kLengthBucketed);
  bad_router.router.length_edges.clear();
  EXPECT_TRUE(HasIssueFor(CheckClusterConfig(bad_router), "length_edges"));

  ServingCluster cluster(SmallModel(),
                         SmallCluster(2, RouterPolicy::kRoundRobin));
  EXPECT_THROW(cluster.SetOnline(2, false), std::invalid_argument);
  // A malformed caller embedding throws even in accounting-only mode
  // (where the tensor itself would be dropped).
  {
    auto virt = SmallCluster(2, RouterPolicy::kRoundRobin);
    for (auto& r : virt.replicas) r.engine.execute = false;
    ServingCluster sim(SmallModel(), virt);
    Rng rng(1);
    const std::size_t hidden = SmallModel().config().encoder.hidden;
    EXPECT_THROW(sim.Push({0.0, 16}, MakeInputEmbedding(rng, 8, hidden)),
                 std::invalid_argument);
    (void)sim.Drain();
  }
  EXPECT_THROW(
      {
        ASSERT_TRUE(cluster.Push({1.0, 16}));
        cluster.Push({0.5, 16});
      },
      std::invalid_argument);
  (void)cluster.Drain();

  // A non-finite arrival throws before it reaches any replica, as the
  // first arrival and after a finite one.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double t :
       {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
    ServingCluster fresh(SmallModel(),
                         SmallCluster(2, RouterPolicy::kRoundRobin));
    EXPECT_THROW(fresh.Push({t, 16}), std::invalid_argument) << t;
    ASSERT_TRUE(fresh.Push({1.0, 16}));
    EXPECT_THROW(fresh.Push({t, 16}), std::invalid_argument) << t;
    (void)fresh.Drain();
  }
}

// ------------------------------------------------- Cluster end-to-end --

TEST(ServingClusterTest, RealExecutionBitExactVsSingleEngineReplay) {
  // Heterogeneous fleet: different service speeds and worker counts, so
  // least-outstanding-tokens routing makes non-trivial decisions, plus a
  // bounded queue so some requests are rejected.
  ClusterConfig cfg = SmallCluster(3, RouterPolicy::kLeastOutstandingTokens);
  cfg.replicas[0].engine.service = TokenLinear(2e-5, 1e-3);
  cfg.replicas[1].engine.service = TokenLinear(8e-5, 2e-3);
  cfg.replicas[1].engine.workers = 2;
  cfg.replicas[2].engine.service = Padded(5e-5, 1e-3);
  cfg.replicas[2].engine.queue_capacity = 2;
  cfg.embed_seed = 77;

  const auto trace = SmallTrace(40, 400);
  ServingCluster cluster(SmallModel(), cfg);
  const ClusterResult res = cluster.Replay(trace);
  ASSERT_EQ(res.replica_of.size(), trace.size());
  ASSERT_EQ(res.outputs.size(), trace.size());

  // Reference: one engine replaying the admitted set with the embeddings
  // the cluster synthesized (identity = cluster Push ordinal).
  ServingEngineConfig single = SmallReplica().engine;
  ServingEngine engine(SmallModel(), single);
  const std::size_t hidden = SmallModel().config().encoder.hidden;
  std::vector<std::size_t> admitted_ids;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (res.replica_of[i] == ClusterResult::npos()) continue;
    admitted_ids.push_back(i);
    ASSERT_TRUE(engine.Push(
        trace[i], SynthesizeRequestEmbedding(cfg.embed_seed, i,
                                             trace[i].length, hidden)));
  }
  const ServingResult ref = engine.Drain();
  ASSERT_EQ(ref.outputs.size(), admitted_ids.size());
  for (std::size_t k = 0; k < admitted_ids.size(); ++k) {
    EXPECT_EQ(res.outputs[admitted_ids[k]], ref.outputs[k])
        << "request " << admitted_ids[k];
  }
  // Rejected requests have no output.
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (res.replica_of[i] == ClusterResult::npos()) {
      EXPECT_TRUE(res.outputs[i].empty()) << "request " << i;
    }
  }
}

TEST(ServingClusterTest, DeterministicAcrossThreadCounts) {
  const auto trace = SmallTrace(36, 300);
  ClusterResult reference;
  for (std::size_t threads : {1u, 2u, 4u}) {
    ClusterConfig cfg = SmallCluster(2, RouterPolicy::kJoinShortestQueue);
    for (auto& r : cfg.replicas) r.engine.threads = threads;
    ServingCluster cluster(SmallModel(), cfg);
    ClusterResult res = cluster.Replay(trace);
    if (threads == 1) {
      reference = std::move(res);
      continue;
    }
    EXPECT_EQ(res.replica_of, reference.replica_of);
    EXPECT_EQ(res.fleet().p50_latency_s, reference.fleet().p50_latency_s);
    EXPECT_EQ(res.fleet().p99_latency_s, reference.fleet().p99_latency_s);
    EXPECT_EQ(res.fleet().throughput_rps, reference.fleet().throughput_rps);
    EXPECT_EQ(res.report.mean_batch_fill, reference.report.mean_batch_fill);
    ASSERT_EQ(res.outputs.size(), reference.outputs.size());
    for (std::size_t i = 0; i < res.outputs.size(); ++i) {
      EXPECT_EQ(res.outputs[i], reference.outputs[i]) << "request " << i;
    }
  }
}

TEST(ServingClusterTest, VirtualTimeSweepIsByteIdenticalAcrossRuns) {
  const auto trace = SmallTrace(64, 500, 21);
  for (RouterPolicy policy :
       {RouterPolicy::kRoundRobin, RouterPolicy::kJoinShortestQueue,
        RouterPolicy::kLeastOutstandingTokens,
        RouterPolicy::kLengthBucketed}) {
    ClusterConfig cfg = SmallCluster(3, policy);
    for (auto& r : cfg.replicas) {
      r.engine.execute = false;  // accounting-only policy sweep
      r.engine.service = Padded(4e-5, 5e-4);
    }
    ClusterResult a;
    ClusterResult b;
    {
      ServingCluster cluster(SmallModel(), cfg);
      a = cluster.Replay(trace);
      // A second stream through the same cluster must reproduce the first.
      b = cluster.Replay(trace);
    }
    // Different thread knob, same virtual-time bytes.
    ClusterConfig cfg4 = cfg;
    for (auto& r : cfg4.replicas) r.engine.threads = 4;
    ServingCluster cluster4(SmallModel(), cfg4);
    const ClusterResult c = cluster4.Replay(trace);

    const ClusterResult* others[] = {&b, &c};
    for (const ClusterResult* other : others) {
      EXPECT_EQ(a.replica_of, other->replica_of) << RouterPolicyName(policy);
      EXPECT_EQ(a.fleet().mean_latency_s, other->fleet().mean_latency_s);
      EXPECT_EQ(a.fleet().p99_latency_s, other->fleet().p99_latency_s);
      EXPECT_EQ(a.fleet().device_busy_frac, other->fleet().device_busy_frac);
      EXPECT_EQ(a.report.mean_batch_fill, other->report.mean_batch_fill);
      EXPECT_EQ(a.report.request_imbalance, other->report.request_imbalance);
    }
    EXPECT_TRUE(a.outputs.empty());  // accounting-only: no tensors
  }
}

TEST(ServingClusterTest, FailoverRedistributesWithoutLosingAdmittedWork) {
  const auto trace = SmallTrace(30, 250, 5);
  ClusterConfig cfg = SmallCluster(2, RouterPolicy::kRoundRobin);
  ServingCluster cluster(SmallModel(), cfg);

  const std::size_t cut = trace.size() / 2;
  for (std::size_t i = 0; i < cut; ++i) ASSERT_TRUE(cluster.Push(trace[i]));
  cluster.SetOnline(0, false);  // mid-stream failover
  for (std::size_t i = cut; i < trace.size(); ++i) {
    ASSERT_TRUE(cluster.Push(trace[i]));
  }
  const ClusterResult res = cluster.Drain();

  // The router redistributed: nothing after the cut landed on replica 0...
  for (std::size_t i = cut; i < trace.size(); ++i) {
    EXPECT_EQ(res.replica_of[i], 1u) << "request " << i;
  }
  // ...but replica 0 drained everything it had already admitted: every
  // admitted request has exactly one (non-empty) output.
  EXPECT_EQ(res.routing.admitted, trace.size());
  EXPECT_EQ(res.routing.rejected, 0u);
  ASSERT_EQ(res.outputs.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_FALSE(res.outputs[i].empty()) << "request " << i;
  }
  EXPECT_EQ(res.report.replicas[0].requests +
                res.report.replicas[1].requests,
            trace.size());
  EXPECT_FALSE(res.report.replicas[0].online);
  EXPECT_TRUE(res.report.replicas[1].online);
}

TEST(ServingClusterTest, AllOfflineRejectsAsUnroutable) {
  ClusterConfig cfg = SmallCluster(2, RouterPolicy::kRoundRobin);
  ServingCluster cluster(SmallModel(), cfg);
  cluster.SetOnline(0, false);
  cluster.SetOnline(1, false);
  EXPECT_FALSE(cluster.Push({0.0, 16}));
  cluster.SetOnline(1, true);
  EXPECT_TRUE(cluster.Push({0.1, 16}));
  const ClusterResult res = cluster.Drain();
  EXPECT_EQ(res.routing.offered, 2u);
  EXPECT_EQ(res.routing.admitted, 1u);
  EXPECT_EQ(res.routing.rejected, 1u);
  EXPECT_EQ(res.routing.unroutable, 1u);
}

TEST(ServingClusterTest, BackpressureReroutesToNextChoiceBeforeRejecting) {
  // Glacial service + tiny queues: the round-robin-preferred replica can
  // be full while the other still has room, so the router bounces the
  // request down its ranking, and only a full fleet rejects.  (Under
  // join-shortest-queue the first choice is by construction never full
  // unless every replica is.)
  ClusterConfig cfg = SmallCluster(2, RouterPolicy::kRoundRobin);
  for (auto& r : cfg.replicas) {
    r.engine.service = TokenLinear(0, 100.0);
    r.engine.former.max_batch = 2;
  }
  // Asymmetric waiting rooms so the smaller one fills while the other
  // still has room (equal rooms fill in lockstep under round-robin).
  cfg.replicas[0].engine.queue_capacity = 2;
  cfg.replicas[1].engine.queue_capacity = 5;
  ServingCluster cluster(SmallModel(), cfg);
  const auto trace = BimodalTrace(24, 1e-4, 24, 48);
  std::size_t pushed_ok = 0;
  for (const auto& r : trace) {
    if (cluster.Push(r)) ++pushed_ok;
  }
  const ClusterResult res = cluster.Drain();

  EXPECT_EQ(res.routing.offered, trace.size());
  EXPECT_EQ(res.routing.admitted, pushed_ok);
  EXPECT_EQ(res.routing.admitted + res.routing.rejected, trace.size());
  EXPECT_GT(res.routing.rejected, 0u);
  EXPECT_GT(res.routing.rerouted, 0u);
  EXPECT_EQ(res.routing.unroutable, 0u);  // fleet was online throughout

  // Cluster-level admission equals the sum over replica admissions, and
  // rejected requests appear in no replica's result.
  std::size_t replica_accepted = 0;
  std::size_t replica_outputs = 0;
  for (const auto& rr : res.replica_results) {
    replica_accepted += rr.admission.accepted;
    EXPECT_EQ(rr.admission.rejected, 0u);  // cluster pre-checks capacity
    replica_outputs += rr.outputs.size();
  }
  EXPECT_EQ(replica_accepted, res.routing.admitted);
  EXPECT_EQ(replica_outputs, res.routing.admitted);
}

TEST(ServingClusterTest, SingleReplicaFleetReportEqualsReplicaReport) {
  const auto trace = SmallTrace(24, 150, 13);
  ClusterConfig cfg = SmallCluster(1, RouterPolicy::kRoundRobin);
  cfg.replicas[0].engine.workers = 2;
  ServingCluster cluster(SmallModel(), cfg);
  const ClusterResult res = cluster.Replay(trace);

  const ServingReport& fleet = res.fleet();
  const ServingReport& rep = res.report.replicas[0].report;
  EXPECT_EQ(fleet.requests, rep.requests);
  EXPECT_EQ(fleet.batches, rep.batches);
  EXPECT_EQ(fleet.mean_batch_size, rep.mean_batch_size);
  EXPECT_DOUBLE_EQ(fleet.mean_latency_s, rep.mean_latency_s);
  EXPECT_DOUBLE_EQ(fleet.p50_latency_s, rep.p50_latency_s);
  EXPECT_DOUBLE_EQ(fleet.p99_latency_s, rep.p99_latency_s);
  EXPECT_DOUBLE_EQ(fleet.throughput_rps, rep.throughput_rps);
  EXPECT_DOUBLE_EQ(fleet.device_busy_frac, rep.device_busy_frac);
  EXPECT_DOUBLE_EQ(res.report.request_imbalance, 1.0);
  EXPECT_DOUBLE_EQ(res.report.token_imbalance, 1.0);
}

TEST(ServingClusterTest, FleetAccountingSumsAcrossReplicas) {
  const auto trace = SmallTrace(40, 300, 17);
  ClusterConfig cfg = SmallCluster(3, RouterPolicy::kRoundRobin);
  ServingCluster cluster(SmallModel(), cfg);
  const ClusterResult res = cluster.Replay(trace);

  std::size_t requests = 0;
  std::size_t batches = 0;
  std::size_t tokens = 0;
  for (const auto& acc : res.report.replicas) {
    requests += acc.requests;
    batches += acc.report.batches;
    tokens += acc.tokens;
  }
  EXPECT_EQ(res.fleet().requests, requests);
  EXPECT_EQ(res.fleet().requests, trace.size());
  EXPECT_EQ(res.fleet().batches, batches);
  EXPECT_EQ(tokens, TraceTokens(trace));
  EXPECT_GE(res.report.request_imbalance, 1.0);
  EXPECT_GE(res.report.token_imbalance, 1.0);
  EXPECT_GT(res.report.mean_batch_fill, 0.0);
  EXPECT_LE(res.report.mean_batch_fill, 1.0 + 1e-12);
}

TEST(ServingClusterTest, LengthBucketedBeatsRoundRobinOnBatchDensity) {
  // Bimodal lengths arriving back-to-back: round-robin mixes 16s and 128s
  // in every batch (fill ~ (16+128)/(2*128)), length-bucketed routing
  // keeps each replica's batches uniform (fill = 1).
  const auto trace = BimodalTrace(64, 5e-4, 16, 128);
  double fill[2];
  double p99[2];
  int i = 0;
  for (RouterPolicy policy :
       {RouterPolicy::kRoundRobin, RouterPolicy::kLengthBucketed}) {
    ClusterConfig cfg = SmallCluster(2, policy);
    for (auto& r : cfg.replicas) {
      r.engine.execute = false;
      r.engine.former.max_batch = 8;
      r.engine.service = Padded(1e-4, 1e-3);
    }
    cfg.router.length_edges = {32};
    ServingCluster cluster(SmallModel(), cfg);
    const ClusterResult res = cluster.Replay(trace);
    fill[i] = res.report.mean_batch_fill;
    p99[i] = res.fleet().p99_latency_s;
    ++i;
  }
  EXPECT_GT(fill[1], fill[0]);
  EXPECT_DOUBLE_EQ(fill[1], 1.0);  // uniform batches on both replicas
  EXPECT_LT(p99[1], p99[0]);      // padded backend: density is latency
}

}  // namespace
}  // namespace latte
