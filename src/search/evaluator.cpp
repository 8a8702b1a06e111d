#include "search/evaluator.hpp"

#include <cmath>
#include <limits>

#include "cluster/cluster.hpp"
#include "fpga/accelerator.hpp"
#include "metrics/energy.hpp"
#include "model/config.hpp"
#include "search/design_space.hpp"
#include "serve/service_model.hpp"
#include "workload/dataset.hpp"

namespace latte::search {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Multiplier on the rejected-request fraction added to the delay term:
/// cost = p99 * (1 + kRejectPenalty * rejected/offered) * energy.
constexpr double kRejectPenalty = 4.0;

/// The model whose accounting shape every replica serves, scaled down so
/// an SA run stays cheap (the twin only prices it, never executes it).
ModelConfig EvaluationModel() { return ScaledDown(BertBase(), 6); }

/// Dynamic energy of executing one request of `length` tokens on a slot
/// with sparse inventory `ops`: DSP MACs plus HBM traffic of the full
/// stack (latency_s = 0 -- the static term is priced fleet-wide below).
double RequestDynamicJoules(const ModelConfig& model,
                            const std::vector<OpSpec>& ops,
                            std::size_t length) {
  const double n = static_cast<double>(length);
  const double layers = static_cast<double>(model.layers);
  const double macs = layers * TotalFlops(ops, n) / 2.0;
  // 8-bit datapath: one byte per element.
  const double offchip_bytes = layers * TotalOffchipElems(ops, n);
  return EstimateBatchEnergy(macs, /*lut_ops=*/0, /*onchip_bytes=*/0,
                             offchip_bytes, /*latency_s=*/0)
      .TotalJoules();
}

}  // namespace

ZipfTraceConfig EvaluationTraceConfig() {
  // Long enough that batching and caching matter, short enough that one
  // evaluation costs milliseconds.
  ZipfTraceConfig trace;
  trace.arrival_rate_rps = 60;
  trace.requests = 192;
  trace.population = 48;
  trace.skew = 1.0;
  trace.seed = 7;
  return trace;
}

bool Dominates(const DesignScore& a, const DesignScore& b) {
  if (!a.valid) return false;
  if (!b.valid) return true;
  const bool no_worse = a.p99_s <= b.p99_s &&
                        a.throughput_rps >= b.throughput_rps &&
                        a.energy_j <= b.energy_j;
  const bool better = a.p99_s < b.p99_s ||
                      a.throughput_rps > b.throughput_rps ||
                      a.energy_j < b.energy_j;
  return no_worse && better;
}

DesignEvaluator::DesignEvaluator()
    : model_(EvaluationModel(), 2022),
      trace_(GenerateZipfTrace(EvaluationTraceConfig(), Squad())) {}

DesignScore DesignEvaluator::Evaluate(const DesignPoint& dp) const {
  DesignScore score;
  score.cost = kInf;
  score.issues = CheckDesignPoint(dp);
  if (!score.issues.empty()) return score;

  ClusterConfig ccfg = ClusterConfigFromDesignPoint(dp);
  for (std::size_t i = 0; i < ccfg.replicas.size(); ++i) {
    ServingEngineConfig& engine = ccfg.replicas[i].engine;
    engine.execute = false;  // accounting-only twin: the SA oracle
    engine.threads = 1;
    ServiceModelSpec spec;
    spec.base = ServiceModelSpec::Base::kAccelerator;
    spec.model = model_.config();
    spec.accel.top_k = dp.replicas[i].top_k;
    engine.service = BuildServiceModel(spec);
    // An adaptive replica prices each ladder rung at its own sparsity
    // (the engine falls back to flat tier pricing otherwise, which would
    // make degradation latency-neutral and the knob a no-op to the SA).
    if (engine.adapt.enabled) {
      engine.tier_services = BuildTierServiceModels(spec, engine.adapt.tiers);
    }
  }

  ServingCluster cluster(model_, ccfg);
  const ClusterResult result = cluster.Replay(trace_);
  const ServingReport& fleet = result.fleet();

  score.offered = result.routing.offered;
  score.completed = fleet.requests;
  score.rejected = result.routing.rejected;
  score.p99_s = fleet.p99_latency_s;
  score.throughput_rps = fleet.throughput_rps;
  if (score.completed == 0 || !(score.throughput_rps > 0)) {
    AddIssue(score.issues, "design",
             "completed no requests on the evaluation trace");
    return score;
  }

  // Dynamic energy: every request that reached a replica is priced at
  // that replica's sparsity, then scaled by the fraction the replica
  // actually executed (cache hits compute nothing).
  const EncoderConfig& enc = model_.config().encoder;
  std::vector<std::vector<OpSpec>> replica_ops;
  for (const auto& replica : dp.replicas) {
    const std::size_t k = replica.top_k;
    replica_ops.push_back(EncoderOps(enc, AttentionMode::kSparseTopK, k));
  }
  std::vector<double> routed_joules(dp.replicas.size(), 0);
  std::vector<std::size_t> routed_count(dp.replicas.size(), 0);
  for (std::size_t p = 0; p < result.replica_of.size(); ++p) {
    const std::size_t r = result.replica_of[p];
    if (r == ClusterResult::npos()) continue;
    routed_joules[r] +=
        RequestDynamicJoules(model_.config(), replica_ops[r], trace_[p].length);
    ++routed_count[r];
  }
  double dynamic_j = 0;
  for (std::size_t r = 0; r < dp.replicas.size(); ++r) {
    if (routed_count[r] == 0) continue;
    const double executed_frac =
        static_cast<double>(result.report.replicas[r].requests) /
        static_cast<double>(routed_count[r]);
    dynamic_j += routed_joules[r] * std::min(1.0, executed_frac);
  }
  // Static energy: every provisioned slot idles (or works) for the whole
  // span, so over-provisioned fleets pay for their silicon.
  const double span_s =
      static_cast<double>(score.completed) / score.throughput_rps;
  const double static_w = FpgaPowerWatts(AcceleratorConfig{}.spec, 0.0);
  const double static_j =
      static_w * span_s * static_cast<double>(BackendSlots(dp));
  score.energy_j = dynamic_j + static_j;

  // SET's e^n * d at n = 1: delay (p99, inflated by shed load) times
  // energy.
  const double reject_frac =
      score.offered == 0
          ? 0
          : static_cast<double>(score.rejected) /
                static_cast<double>(score.offered);
  score.cost =
      score.p99_s * (1.0 + kRejectPenalty * reject_frac) * score.energy_j;
  score.valid = std::isfinite(score.cost);
  if (!score.valid) score.cost = kInf;
  return score;
}

}  // namespace latte::search
