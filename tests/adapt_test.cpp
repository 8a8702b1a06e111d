// Tests for the SLO-driven admission/degradation layer: controller
// hysteresis at the band edges, thread-count determinism of adaptive
// replay, bit-exactness of escalated re-runs against the full model,
// accuracy-floor enforcement under step overload, the unified
// ServiceModelSpec surface, degradation-aware routing and the DesignPoint
// JSON round-trip of the controller knobs.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
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

ModelInstance& SmallModel() {
  static ModelInstance model(ScaledDown(BertBase(), 6), 2022);
  return model;
}

/// A three-rung ladder over the SmallModel's top_k = 16 full service.
AdaptiveServingConfig TestLadder() {
  AdaptiveServingConfig adapt;
  adapt.enabled = true;
  adapt.slo_p99_s = 0.05;
  adapt.epoch_s = 0.002;
  adapt.queue_ref = 4;
  adapt.tiers = {ServiceTier{16, false, 1.0}, ServiceTier{8, false, 0.95},
                 ServiceTier{4, true, 0.85}};
  return adapt;
}

ServingEngineConfig AdaptiveEngineConfig() {
  ServingEngineConfig cfg;
  cfg.former.max_batch = 4;
  cfg.former.timeout_s = 0.005;
  cfg.workers = 1;
  cfg.threads = 2;
  cfg.inference.mode = InferenceMode::kSparseInt8;
  cfg.inference.sparse.top_k = 16;
  cfg.adapt = TestLadder();
  return cfg;
}

/// A short burst: `requests` arrivals `gap_s` apart, all `length` tokens.
std::vector<TimedRequest> BurstTrace(std::size_t requests, double gap_s,
                                     std::size_t length) {
  std::vector<TimedRequest> trace;
  for (std::size_t i = 0; i < requests; ++i) {
    trace.push_back({static_cast<double>(i) * gap_s, length});
  }
  return trace;
}

// ------------------------------------------------- AdaptiveController --

TEST(AdaptiveControllerTest, HysteresisHoldsAtBandEdges) {
  AdaptiveServingConfig cfg = TestLadder();
  cfg.queue_ref = 10;
  cfg.low_band = 0.5;
  cfg.high_band = 1.0;
  AdaptiveController c(cfg);

  // Pressure exactly at the high edge (10/10 = 1.0) must not degrade:
  // the band is strict, so sitting on the edge cannot flap.
  for (int i = 0; i < 5; ++i) c.AdvanceEpoch(10);
  EXPECT_EQ(c.level(), 0u);

  c.AdvanceEpoch(11);  // 1.1 > high: one step down the ladder
  EXPECT_EQ(c.level(), 1u);

  // Anywhere inside the band -- including exactly the low edge (5/10 =
  // 0.5, not < 0.5) -- the level holds.
  for (int i = 0; i < 5; ++i) c.AdvanceEpoch(5);
  EXPECT_EQ(c.level(), 1u);
  for (int i = 0; i < 5; ++i) c.AdvanceEpoch(9);
  EXPECT_EQ(c.level(), 1u);

  c.AdvanceEpoch(4);  // 0.4 < low: recover one step
  EXPECT_EQ(c.level(), 0u);

  // One step per epoch, clamped at the last rung.
  for (int i = 0; i < 10; ++i) c.AdvanceEpoch(100);
  EXPECT_EQ(c.level(), cfg.tiers.size() - 1);

  c.Reset();
  EXPECT_EQ(c.level(), 0u);
}

TEST(AdaptiveControllerTest, ChecksNameEveryIllegalField) {
  AdaptiveServingConfig cfg = TestLadder();
  cfg.enabled = false;
  cfg.slo_p99_s = -1;  // garbage is fine while disabled
  EXPECT_TRUE(CheckAdaptiveServingConfig(cfg).empty());

  cfg = TestLadder();
  cfg.slo_p99_s = 0;
  cfg.high_band = cfg.low_band;
  cfg.escalate_bits = 3;
  cfg.tiers[1].top_k = 16;    // must strictly decrease
  cfg.tiers[2].accuracy = 2;  // must be in (0, 1]
  const ConfigIssues issues = CheckAdaptiveServingConfig(cfg);
  EXPECT_TRUE(HasIssueFor(issues, "slo_p99_s"));
  EXPECT_TRUE(HasIssueFor(issues, "high_band"));
  EXPECT_TRUE(HasIssueFor(issues, "escalate_bits"));
  EXPECT_TRUE(HasIssueFor(issues, "tiers[1].top_k"));
  EXPECT_TRUE(HasIssueFor(issues, "tiers[2].accuracy"));
}

TEST(AdaptiveControllerTest, EngineConfigCrossChecks) {
  ServingEngineConfig cfg = AdaptiveEngineConfig();
  EXPECT_TRUE(CheckServingEngineConfig(cfg).empty());

  cfg.cache.enabled = true;
  EXPECT_TRUE(HasIssueFor(CheckServingEngineConfig(cfg), "adapt.enabled"));
  cfg.cache.enabled = false;

  cfg.inference.sparse.top_k = 30;  // tier 0 no longer the full service
  EXPECT_TRUE(
      HasIssueFor(CheckServingEngineConfig(cfg), "adapt.tiers[0].top_k"));
  cfg.inference.sparse.top_k = 16;

  cfg.tier_services = {TokenLinear(1e-6, 1e-4)};  // 1 for 3 tiers
  EXPECT_TRUE(HasIssueFor(CheckServingEngineConfig(cfg), "tier_services"));
}

// ------------------------------------------------- ServiceModelSpec --

TEST(ServiceModelSpecTest, ChecksAndBuildsEveryBase) {
  ServiceModelSpec spec;
  spec.seconds_per_token = -1;
  EXPECT_TRUE(HasIssueFor(CheckServiceModelSpec(spec), "seconds_per_token"));
  EXPECT_THROW(BuildServiceModel(spec), std::invalid_argument);
  spec.seconds_per_token = 0;  // a flat per-batch price is legal
  EXPECT_TRUE(CheckServiceModelSpec(spec).empty());

  spec = ServiceModelSpec{};
  const BatchServiceModel linear = BuildServiceModel(spec);
  EXPECT_DOUBLE_EQ(linear({100, 50}),
                   spec.batch_overhead_s + 150 * spec.seconds_per_token);

  spec.base = ServiceModelSpec::Base::kPadded;
  const BatchServiceModel padded = BuildServiceModel(spec);
  EXPECT_DOUBLE_EQ(padded({100, 50}),
                   spec.batch_overhead_s + 2 * 100 * spec.seconds_per_token);

  // The accelerator base prices with the performance twin itself.
  spec.base = ServiceModelSpec::Base::kAccelerator;
  spec.model = SmallModel().config();
  const std::vector<std::size_t> batch = {96, 64};
  EXPECT_EQ(BuildServiceModel(spec)(batch),
            RunAccelerator(spec.model, batch, spec.accel).makespan);
}

TEST(ServiceModelSpecTest, AcceleratorPriceIsTheTwinsMakespanBitForBit) {
  // The built model holds the operator inventory and skips the job list;
  // its price must still be RunAccelerator's makespan, bit for bit.
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const auto tiers = TestLadder().tiers;
  Rng rng(2022);
  for (const ModelConfig& model : {SmallModel().config(), BertBase()}) {
    for (const FpgaMode mode : {FpgaMode::kLengthAware, FpgaMode::kBaseline}) {
      for (const std::size_t pad_to : {std::size_t{0}, std::size_t{384}}) {
        ServiceModelSpec spec;
        spec.base = ServiceModelSpec::Base::kAccelerator;
        spec.model = model;
        spec.accel.mode = mode;
        spec.accel.sort_batch = true;
        spec.accel.baseline_pad_to = pad_to;
        const auto priced = BuildTierServiceModels(spec, tiers);
        ASSERT_EQ(priced.size(), tiers.size());
        for (std::size_t t = 0; t < tiers.size(); ++t) {
          const AcceleratorConfig accel = WithTopK(spec, tiers[t].top_k).accel;
          for (std::size_t b = 1; b <= 32; ++b) {
            std::vector<std::size_t> lens(b);
            for (auto& l : lens) l = 1 + rng.NextIndex(512);
            EXPECT_EQ(bits(priced[t](lens)),
                      bits(RunAccelerator(model, lens, accel).makespan))
                << "tier " << t << ", batch of " << b;
          }
          EXPECT_THROW(priced[t]({}), std::invalid_argument);
        }
      }
    }
  }
}

TEST(ServiceModelSpecTest, NamesBrokenAcceleratorFields) {
  // Each of these used to build and then throw from the first priced batch.
  ServiceModelSpec spec;
  spec.base = ServiceModelSpec::Base::kAccelerator;
  spec.model = SmallModel().config();
  EXPECT_TRUE(CheckServiceModelSpec(spec).empty());

  spec.model.layers = 0;
  EXPECT_TRUE(HasIssueFor(CheckServiceModelSpec(spec), "model.layers"));
  EXPECT_THROW(BuildServiceModel(spec), std::invalid_argument);
  spec.model.layers = 1;

  // A broken encoder shape used to price without an error: BERT-base
  // with hidden = 0 priced a {128, 64} batch at 12.3 us, with heads = 0
  // at 55.6 ms.
  const EncoderConfig encoder = spec.model.encoder;
  spec.model.encoder.hidden = 0;
  EXPECT_TRUE(
      HasIssueFor(CheckServiceModelSpec(spec), "model.encoder.hidden"));
  EXPECT_THROW(BuildServiceModel(spec), std::invalid_argument);
  spec.model.encoder = encoder;
  for (const std::size_t heads : {std::size_t{0}, encoder.hidden + 1}) {
    spec.model.encoder.heads = heads;
    EXPECT_TRUE(
        HasIssueFor(CheckServiceModelSpec(spec), "model.encoder.heads"))
        << heads;
    EXPECT_THROW(BuildServiceModel(spec), std::invalid_argument) << heads;
  }
  spec.model.encoder = encoder;
  EXPECT_TRUE(CheckServiceModelSpec(spec).empty());

  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double freq : {0.0, -200e6, inf, nan}) {
    spec.accel.spec.freq_hz = freq;
    EXPECT_TRUE(HasIssueFor(CheckServiceModelSpec(spec), "accel.spec.freq_hz"))
        << freq;
    EXPECT_THROW(BuildServiceModel(spec), std::invalid_argument) << freq;
  }
  spec.accel.spec.freq_hz = AlveoU280Slr0().freq_hz;

  // The stage roofs divide by these: 0, negative or NaN used to price a
  // batch at seconds or more (dsp was silently floored to 1 per stage).
  using Field = double FpgaSpec::*;
  const std::pair<Field, const char*> roofs[] = {
      {&FpgaSpec::dsp, "accel.spec.dsp"},
      {&FpgaSpec::lut, "accel.spec.lut"},
      {&FpgaSpec::hbm_bandwidth, "accel.spec.hbm_bandwidth"},
      {&FpgaSpec::hbm_efficiency, "accel.spec.hbm_efficiency"},
  };
  for (const auto& [field, name] : roofs) {
    for (const double bad : {0.0, -3000.0, inf, nan}) {
      spec.accel.spec.*field = bad;
      EXPECT_TRUE(HasIssueFor(CheckServiceModelSpec(spec), name))
          << name << " = " << bad;
      EXPECT_THROW(BuildServiceModel(spec), std::invalid_argument) << name;
    }
    spec.accel.spec = AlveoU280Slr0();
  }
  // Fewer channels than Fig 2(a) stages threw from the first priced batch.
  for (const std::size_t channels : {0u, 2u}) {
    spec.accel.spec.hbm_channels = channels;
    EXPECT_TRUE(
        HasIssueFor(CheckServiceModelSpec(spec), "accel.spec.hbm_channels"))
        << channels;
  }
  spec.accel.spec.hbm_channels = 3;
  EXPECT_TRUE(CheckServiceModelSpec(spec).empty());
  EXPECT_GT(BuildServiceModel(spec)({96, 64}), 0.0);
  spec.accel.spec = AlveoU280Slr0();

  spec.accel.top_k = 0;
  EXPECT_TRUE(HasIssueFor(CheckServiceModelSpec(spec), "accel.top_k"));
  spec.accel.top_k = 16;
  EXPECT_TRUE(CheckServiceModelSpec(spec).empty());
}

TEST(ServiceModelSpecTest, TierModelsPriceSparserTiersNoSlower) {
  ServiceModelSpec spec;
  spec.base = ServiceModelSpec::Base::kAccelerator;
  spec.model = SmallModel().config();
  spec.accel.top_k = 16;
  const auto tiers = TestLadder().tiers;
  const std::vector<BatchServiceModel> models =
      BuildTierServiceModels(spec, tiers);
  ASSERT_EQ(models.size(), tiers.size());
  const std::vector<std::size_t> batch(4, 128);
  double prev = models[0](batch);
  EXPECT_EQ(prev, BuildServiceModel(WithTopK(spec, 16))(batch));
  for (std::size_t t = 1; t < models.size(); ++t) {
    const double price = models[t](batch);
    EXPECT_LE(price, prev) << "tier " << t;
    prev = price;
  }
}

// ------------------------------------------------- adaptive engine --

TEST(AdaptiveEngineTest, ReportsByteIdenticalAcrossThreadCounts) {
  // A step overload that forces the controller down the ladder, with
  // distinct per-tier pricing so degradation changes the timeline.  The
  // tier-0 price (a 4x128 batch costs ~17ms against 0.5ms arrival gaps)
  // guarantees the queue outruns queue_ref and the controller engages.
  const auto trace = BurstTrace(48, 0.0005, 128);
  ServingResult reference;
  for (std::size_t threads : {1u, 4u}) {
    ServingEngineConfig cfg = AdaptiveEngineConfig();
    cfg.threads = threads;
    cfg.service = TokenLinear(3e-5, 2e-3);
    cfg.tier_services = {TokenLinear(3e-5, 2e-3),
                         TokenLinear(1.5e-5, 2e-3),
                         TokenLinear(7.5e-6, 2e-3)};
    ServingEngine engine(SmallModel(), cfg);
    ServingResult res = engine.Replay(trace);
    if (threads == 1) {
      reference = std::move(res);
      continue;
    }
    ASSERT_EQ(res.batches.size(), reference.batches.size());
    for (std::size_t b = 0; b < res.batches.size(); ++b) {
      EXPECT_EQ(res.batches[b].indices, reference.batches[b].indices);
      EXPECT_EQ(res.batches[b].ready_s, reference.batches[b].ready_s);
      EXPECT_EQ(res.batches[b].tier, reference.batches[b].tier);
    }
    EXPECT_EQ(res.request_tiers, reference.request_tiers);
    EXPECT_EQ(res.superseded, reference.superseded);
    EXPECT_EQ(res.report().mean_latency_s, reference.report().mean_latency_s);
    EXPECT_EQ(res.report().p99_latency_s, reference.report().p99_latency_s);
    EXPECT_EQ(res.report().mean_accuracy, reference.report().mean_accuracy);
    ASSERT_EQ(res.outputs.size(), reference.outputs.size());
    for (std::size_t i = 0; i < res.outputs.size(); ++i) {
      EXPECT_EQ(res.outputs[i], reference.outputs[i]) << "request " << i;
    }
  }
  // The overload actually engaged the ladder: some request was served
  // degraded, and the per-tier accounting says which.
  ASSERT_EQ(reference.report().tiers.size(), 3u);
  std::size_t degraded = 0;
  for (std::size_t t = 1; t < 3; ++t) {
    degraded += reference.report().tiers[t].requests;
  }
  EXPECT_GT(degraded, 0u);
}

TEST(AdaptiveEngineTest, EscalatedRerunsAreBitExactAgainstFullModel) {
  ServingEngineConfig cfg = AdaptiveEngineConfig();
  // Degrade almost immediately and distrust every first pass, so the
  // escalation path is guaranteed to fire.
  cfg.adapt.epoch_s = 0.0002;
  cfg.adapt.low_band = 0.0;
  cfg.adapt.high_band = 1e-6;
  cfg.adapt.queue_ref = 1;
  cfg.adapt.escalate_margin = 1.0;
  ServingEngine engine(SmallModel(), cfg);

  const auto trace = BurstTrace(24, 0.001, 96);
  Rng rng(7);
  std::vector<MatrixF> inputs;
  const std::size_t hidden = SmallModel().config().encoder.hidden;
  for (const auto& r : trace) {
    inputs.push_back(MakeInputEmbedding(rng, r.length, hidden));
    ASSERT_TRUE(engine.Push(r, inputs.back()));
  }
  const ServingResult res = engine.Drain();

  ASSERT_EQ(res.report().tiers.size(), 3u);
  EXPECT_GT(res.report().tiers[2].escalated, 0u);

  // Every surviving tier-0 output -- served there directly or escalated
  // into it -- is bit-exact against the full model on the same input.
  std::size_t tier0 = 0;
  ASSERT_EQ(res.request_tiers.size(), res.outputs.size());
  for (std::size_t idx = 0; idx < res.outputs.size(); ++idx) {
    if (res.superseded[idx] != 0 || res.request_tiers[idx] != 0) continue;
    ++tier0;
    EXPECT_EQ(res.outputs[idx],
              SmallModel().Forward(inputs[res.offered_ids[idx]],
                                   cfg.inference))
        << "admitted " << idx;
  }
  EXPECT_GT(tier0, 0u);
}

TEST(AdaptiveEngineTest, ProbedSynthesizedInputsExecuteAsIfPassedIn) {
  // The escalation probe synthesizes a request's input in Push, and an
  // execute-mode engine keeps it for Drain.  The outputs must equal a run
  // handed the same SynthesizeRequestEmbedding tensors explicitly.
  ServingEngineConfig cfg = AdaptiveEngineConfig();
  cfg.adapt.epoch_s = 0.0002;
  cfg.adapt.low_band = 0.0;
  cfg.adapt.high_band = 1e-6;
  cfg.adapt.queue_ref = 1;
  cfg.adapt.escalate_margin = 1.0;
  const auto trace = BurstTrace(24, 0.001, 96);
  const std::size_t hidden = SmallModel().config().encoder.hidden;

  ServingEngine synthesized(SmallModel(), cfg);
  ServingEngine explicit_inputs(SmallModel(), cfg);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ASSERT_TRUE(synthesized.Push(trace[i]));
    ASSERT_TRUE(explicit_inputs.Push(
        trace[i], SynthesizeRequestEmbedding(cfg.embed_seed, i,
                                             trace[i].length, hidden)));
  }
  const ServingResult got = synthesized.Drain();
  const ServingResult want = explicit_inputs.Drain();

  // The probe ran: requests were first served at the escalating tier.
  ASSERT_EQ(got.report().tiers.size(), 3u);
  EXPECT_GT(got.report().tiers[2].escalated, 0u);
  EXPECT_EQ(got.request_tiers, want.request_tiers);
  EXPECT_EQ(got.superseded, want.superseded);
  ASSERT_EQ(got.outputs.size(), want.outputs.size());
  for (std::size_t i = 0; i < got.outputs.size(); ++i) {
    EXPECT_EQ(got.outputs[i], want.outputs[i]) << "admitted " << i;
  }
}

TEST(AdaptiveEngineTest, AccuracyFloorHoldsUnderStepOverload) {
  ServingEngineConfig cfg = AdaptiveEngineConfig();
  cfg.execute = false;
  cfg.adapt.accuracy_floor = 0.97;
  cfg.adapt.tiers[1].accuracy = 0.9;
  cfg.adapt.tiers[2].accuracy = 0.8;
  // Saturating overload: the controller wants the bottom rung throughout.
  cfg.adapt.epoch_s = 0.0005;
  cfg.adapt.queue_ref = 1;
  cfg.service = TokenLinear(1e-5, 5e-3);
  ServingEngine engine(SmallModel(), cfg);

  const ServingResult res = engine.Replay(BurstTrace(200, 0.0002, 64));
  EXPECT_GE(res.report().mean_accuracy, cfg.adapt.accuracy_floor - 1e-12);
  // The floor constrained the ladder, not the other way round: some
  // requests were degraded, but fewer than the controller asked for.
  std::size_t degraded = 0;
  std::size_t total = 0;
  for (const TierUsage& tier : res.report().tiers) {
    total += tier.requests;
  }
  for (std::size_t t = 1; t < res.report().tiers.size(); ++t) {
    degraded += res.report().tiers[t].requests;
  }
  EXPECT_EQ(total, res.report().requests);
  EXPECT_GT(degraded, 0u);
  EXPECT_LT(degraded, total);
}

TEST(AdaptiveEngineTest, ShedsOnlyWhenTheBoundedQueueIsFull) {
  ServingEngineConfig cfg = AdaptiveEngineConfig();
  cfg.execute = false;
  cfg.queue_capacity = 4;
  cfg.service = TokenLinear(0, 10.0);  // glacial: cannot drain
  ServingEngine engine(SmallModel(), cfg);
  std::size_t accepted = 0;
  for (const TimedRequest& r : BurstTrace(12, 0.0001, 32)) {
    if (engine.Push(r)) ++accepted;
  }
  const AdmissionStats admission = engine.admission();
  EXPECT_EQ(admission.offered, 12u);
  EXPECT_EQ(admission.accepted, accepted);
  EXPECT_GT(admission.rejected, 0u);
  EXPECT_EQ(admission.accepted + admission.rejected, admission.offered);
  const ServingResult res = engine.Drain();
  EXPECT_EQ(res.report().requests, accepted);
}

TEST(AdaptiveEngineTest, PushValidatesTheOptionalInput) {
  ServingEngineConfig cfg = AdaptiveEngineConfig();
  ServingEngine engine(SmallModel(), cfg);
  const std::size_t hidden = SmallModel().config().encoder.hidden;
  Rng rng(3);
  EXPECT_TRUE(engine.Push({0.0, 64}, MakeInputEmbedding(rng, 64, hidden)));
  EXPECT_THROW(engine.Push({0.001, 64},
                           MakeInputEmbedding(rng, 64, hidden + 1)),
               std::invalid_argument);
  EXPECT_TRUE(engine.Push({0.002, 64}));  // synthesized embedding
  const ServingResult res = engine.Drain();
  EXPECT_EQ(res.report().requests, 2u);
}

// ------------------------------------------------- routing & search --

TEST(LeastDegradedRoutingTest, PrefersFullQualityThenShortQueue) {
  RouterConfig cfg;
  cfg.policy = RouterPolicy::kLeastDegraded;
  Router router(cfg, 3);
  std::vector<ReplicaSnapshot> fleet(3);
  fleet[0].service_level = 1;
  fleet[1].queue_depth = 5;
  fleet[2].queue_depth = 1;
  EXPECT_EQ(router.Rank({0.0, 100}, fleet),
            (std::vector<std::size_t>{2, 1, 0}));
  fleet[1].online = false;
  EXPECT_EQ(router.Rank({0.0, 100}, fleet),
            (std::vector<std::size_t>{2, 0}));
}

TEST(DesignPointAdaptTest, JsonRoundTripsAndSpaceAcceptsCanonicalLadder) {
  search::DesignPoint dp;
  dp.replicas.resize(2);
  dp.replicas[0].top_k = 30;
  dp.replicas[0].adapt = search::CanonicalAdaptiveLadder(30, 0.1);
  dp.replicas[1].top_k = 16;
  dp.router.policy = RouterPolicy::kLeastDegraded;
  EXPECT_TRUE(search::CheckDesignPoint(dp).empty());
  EXPECT_TRUE(search::CheckInSpace(dp).empty());

  const std::string json = search::DesignPointToJson(dp);
  const search::DesignPoint back = search::DesignPointFromJson(json);
  EXPECT_EQ(search::DesignPointToJson(back), json);
  ASSERT_EQ(back.replicas.size(), 2u);
  EXPECT_TRUE(back.replicas[0].adapt.enabled);
  EXPECT_EQ(back.replicas[0].adapt.tiers.size(), 3u);
  EXPECT_EQ(back.replicas[0].adapt.tiers[0].top_k, 30u);
  EXPECT_FALSE(back.replicas[1].adapt.enabled);

  // Tier 0 must track the replica's own sparsity...
  dp.replicas[0].adapt.tiers[0].top_k = 64;
  EXPECT_TRUE(HasIssueFor(search::CheckDesignPoint(dp),
                          "replicas[0].adapt.tiers[0].top_k"));
  dp.replicas[0].adapt.tiers[0].top_k = 30;
  // ...the space admits only the canonical ladder...
  dp.replicas[0].adapt.tiers[2].escalate = false;
  EXPECT_TRUE(
      HasIssueFor(search::CheckInSpace(dp), "replicas[0].adapt"));
  dp.replicas[0].adapt.tiers[2].escalate = true;
  // ...and the adaptive layer conflicts with a fleet cache.
  dp.cache_mode = ClusterCacheMode::kPerReplica;
  dp.cache.enabled = true;
  EXPECT_TRUE(HasIssueFor(search::CheckDesignPoint(dp),
                          "replicas[0].adapt.enabled"));
}

TEST(DesignPointAdaptTest, MutationWalkStaysLegalOrRejected) {
  // The SA contract: every sample passes CheckInSpace, and every mutation
  // either passes or is named-field rejected -- never throws.
  Rng rng(17);
  search::DesignPoint dp = search::SampleDesign(rng);
  EXPECT_TRUE(search::CheckInSpace(dp).empty());
  std::size_t adaptive_seen = 0;
  for (int step = 0; step < 400; ++step) {
    const search::DesignPoint next = search::MutateDesign(dp, rng);
    if (search::CheckInSpace(next).empty()) {
      dp = next;
      for (const auto& rd : dp.replicas) {
        if (rd.adapt.enabled) ++adaptive_seen;
      }
    }
  }
  // The adapt arm is actually reachable by the walk.
  EXPECT_GT(adaptive_seen, 0u);
}

}  // namespace
}  // namespace latte
