// Tests for the streaming serving subsystem: Poisson traces, the shared
// length-aware batch former (capacity / token-budget / timeout seals),
// virtual-time dispatch, and the ServingEngine -- deterministic replay at
// any thread count, bit-exact outputs vs sequential forward, backpressure
// accounting, and field-for-field agreement with the FPGA serving
// simulator on a shared trace.

#include <gtest/gtest.h>

#include <algorithm>
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

std::vector<TimedRequest> HandTrace(
    std::initializer_list<std::pair<double, std::size_t>> rows) {
  std::vector<TimedRequest> trace;
  for (const auto& [t, len] : rows) trace.push_back({t, len});
  return trace;
}

// ------------------------------------------------------- Poisson trace --

TEST(PoissonTraceTest, DeterministicOrderedAndDatasetShaped) {
  PoissonTraceConfig cfg;
  cfg.arrival_rate_rps = 100;
  cfg.requests = 200;
  cfg.seed = 5;
  const auto a = GeneratePoissonTrace(cfg, Mrpc());
  const auto b = GeneratePoissonTrace(cfg, Mrpc());
  ASSERT_EQ(a.size(), 200u);
  const auto spec = Mrpc();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_s, b[i].arrival_s);
    EXPECT_EQ(a[i].length, b[i].length);
    if (i > 0) {
      EXPECT_GT(a[i].arrival_s, a[i - 1].arrival_s);
    }
    EXPECT_GE(static_cast<double>(a[i].length), spec.min_len);
    EXPECT_LE(static_cast<double>(a[i].length), spec.max_len);
  }
  EXPECT_GT(TraceTokens(a), 0u);
}

TEST(PoissonTraceTest, ValidatesConfig) {
  PoissonTraceConfig cfg;
  cfg.arrival_rate_rps = 0;
  EXPECT_THROW(GeneratePoissonTrace(cfg, Mrpc()), std::invalid_argument);
  cfg.arrival_rate_rps = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(GeneratePoissonTrace(cfg, Mrpc()), std::invalid_argument);
  cfg.arrival_rate_rps = 10;
  cfg.requests = 0;
  EXPECT_THROW(GeneratePoissonTrace(cfg, Mrpc()), std::invalid_argument);
}

// -------------------------------------------------------- Batch former --

TEST(BatchFormerTest, CapacitySealsAtFillingArrival) {
  const auto trace =
      HandTrace({{0.000, 10}, {0.002, 20}, {0.004, 30}, {0.006, 40}});
  BatchFormerConfig cfg;
  cfg.max_batch = 2;
  cfg.timeout_s = 0.05;
  const auto batches = FormBatches(trace, cfg);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].indices, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(batches[0].seal, BatchSeal::kCapacity);
  EXPECT_DOUBLE_EQ(batches[0].ready_s, 0.002);
  EXPECT_EQ(batches[0].tokens, 30u);
  EXPECT_EQ(batches[1].indices, (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(batches[1].seal, BatchSeal::kCapacity);
  EXPECT_DOUBLE_EQ(batches[1].ready_s, 0.006);
}

TEST(BatchFormerTest, TimeoutSealsAtDeadlineIncludingTrailingBatch) {
  const auto trace = HandTrace({{0.000, 10}, {0.005, 20}, {0.100, 30}});
  BatchFormerConfig cfg;
  cfg.max_batch = 8;
  cfg.timeout_s = 0.02;
  const auto batches = FormBatches(trace, cfg);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].indices, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(batches[0].seal, BatchSeal::kTimeout);
  EXPECT_DOUBLE_EQ(batches[0].ready_s, 0.02);
  // A streaming former cannot know the stream ended: the trailing batch
  // waits out its timer too.
  EXPECT_EQ(batches[1].indices, (std::vector<std::size_t>{2}));
  EXPECT_EQ(batches[1].seal, BatchSeal::kTimeout);
  EXPECT_DOUBLE_EQ(batches[1].ready_s, 0.12);
}

TEST(BatchFormerTest, TokenBudgetSealsAndOversizeRequestStaysSingleton) {
  const auto trace =
      HandTrace({{0.000, 60}, {0.001, 60}, {0.002, 200}, {0.003, 30}});
  BatchFormerConfig cfg;
  cfg.max_batch = 8;
  cfg.max_tokens = 100;
  cfg.timeout_s = 0.05;
  const auto batches = FormBatches(trace, cfg);
  ASSERT_EQ(batches.size(), 4u);
  // 60 + 60 > 100: the second request seals the first batch at its own
  // arrival and opens the next one.
  EXPECT_EQ(batches[0].indices, (std::vector<std::size_t>{0}));
  EXPECT_EQ(batches[0].seal, BatchSeal::kTokenBudget);
  EXPECT_DOUBLE_EQ(batches[0].ready_s, 0.001);
  // The 200-token request exceeds the budget alone but is never blocked:
  // it forms its own batch (sealed when the 30-token request overflows).
  EXPECT_EQ(batches[1].indices, (std::vector<std::size_t>{1}));
  EXPECT_EQ(batches[2].indices, (std::vector<std::size_t>{2}));
  EXPECT_EQ(batches[2].seal, BatchSeal::kTokenBudget);
  EXPECT_EQ(batches[2].tokens, 200u);
  EXPECT_EQ(batches[3].indices, (std::vector<std::size_t>{3}));
  EXPECT_EQ(batches[3].seal, BatchSeal::kTimeout);
}

TEST(BatchFormerTest, ZeroTimeoutOnlyBatchesSimultaneousArrivals) {
  const auto trace = HandTrace({{0.000, 10}, {0.000, 20}, {0.010, 30}});
  BatchFormerConfig cfg;
  cfg.max_batch = 8;
  cfg.timeout_s = 0;
  const auto batches = FormBatches(trace, cfg);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].indices, (std::vector<std::size_t>{0, 1}));
  EXPECT_DOUBLE_EQ(batches[0].ready_s, 0.0);
  EXPECT_EQ(batches[1].indices, (std::vector<std::size_t>{2}));
}

TEST(BatchFormerTest, SortByLengthReordersWithinBatchOnly) {
  const auto trace =
      HandTrace({{0.000, 10}, {0.001, 40}, {0.002, 20}, {0.050, 30}});
  BatchFormerConfig cfg;
  cfg.max_batch = 8;
  cfg.timeout_s = 0.02;
  BatchFormerConfig sorted = cfg;
  sorted.sort_by_length = true;
  const auto plain = FormBatches(trace, cfg);
  const auto desc = FormBatches(trace, sorted);
  ASSERT_EQ(plain.size(), desc.size());
  ASSERT_EQ(plain.size(), 2u);
  EXPECT_EQ(plain[0].indices, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(desc[0].indices, (std::vector<std::size_t>{1, 2, 0}));
  EXPECT_EQ(plain[0].tokens, desc[0].tokens);
  EXPECT_EQ(desc[0].ready_s, plain[0].ready_s);
  const auto lens = BatchLengths(trace, desc[0]);
  EXPECT_EQ(lens, (std::vector<std::size_t>{40, 20, 10}));
}

TEST(BatchFormerTest, ValidatesConfig) {
  BatchFormerConfig cfg;
  cfg.max_batch = 0;
  EXPECT_TRUE(HasIssueFor(CheckBatchFormerConfig(cfg), "max_batch"));
  EXPECT_THROW(FormBatches({}, cfg), std::invalid_argument);
  cfg.max_batch = 4;
  cfg.timeout_s = -1;
  EXPECT_TRUE(HasIssueFor(CheckBatchFormerConfig(cfg), "timeout_s"));
  cfg.timeout_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(HasIssueFor(CheckBatchFormerConfig(cfg), "timeout_s"));
  cfg.timeout_s = 0.01;
  EXPECT_TRUE(CheckBatchFormerConfig(cfg).empty());
}

// ------------------------------------------------------------ Dispatch --

TEST(DispatchTest, SingleRequestLatencyIsTimeoutPlusService) {
  const auto trace = HandTrace({{0.5, 25}});
  BatchFormerConfig former;
  former.max_batch = 4;
  former.timeout_s = 0.05;
  const auto batches = FormBatches(trace, former);
  const auto service = TokenLinear(1e-3, 0.01);  // 25ms + 10ms
  const auto sched = ScheduleFormedBatches(trace, batches, 1, service);
  ASSERT_EQ(sched.report.requests, 1u);
  EXPECT_NEAR(sched.report.mean_latency_s, 0.05 + 0.025 + 0.01, 1e-12);
  EXPECT_DOUBLE_EQ(sched.launch_s[0], 0.55);
  EXPECT_NEAR(sched.done_s[0], 0.55 + 0.035, 1e-12);
}

TEST(DispatchTest, SecondWorkerAbsorbsConcurrentBatches) {
  // Two batches sealed close together; one worker serializes them, two
  // run them concurrently.
  const auto trace = HandTrace({{0.00, 50}, {0.001, 50}, {0.02, 50}});
  BatchFormerConfig former;
  former.max_batch = 2;
  former.timeout_s = 0.005;
  const auto batches = FormBatches(trace, former);
  ASSERT_EQ(batches.size(), 2u);
  const auto service = TokenLinear(0, 1.0);  // 1 s per batch
  const auto one = ScheduleFormedBatches(trace, batches, 1, service);
  const auto two = ScheduleFormedBatches(trace, batches, 2, service);
  EXPECT_GT(one.done_s[1], two.done_s[1] + 0.9);
  EXPECT_GT(one.report.p99_latency_s, two.report.p99_latency_s);
  EXPECT_LE(two.report.device_busy_frac, 1.0 + 1e-9);
  EXPECT_THROW(ScheduleFormedBatches(trace, batches, 0, service),
               std::invalid_argument);
}

// ------------------------------------------------------- ServingEngine --

ModelInstance& SmallModel() {
  static ModelInstance model(ScaledDown(BertBase(), 6), 2022);
  return model;
}

ServingEngineConfig SmallEngineConfig() {
  ServingEngineConfig cfg;
  cfg.former.max_batch = 6;
  cfg.former.timeout_s = 0.02;
  cfg.workers = 2;
  cfg.threads = 2;
  cfg.inference.mode = InferenceMode::kSparseInt8;
  cfg.inference.sparse.top_k = 16;
  return cfg;
}

std::vector<TimedRequest> SmallTrace(std::size_t requests = 40) {
  PoissonTraceConfig cfg;
  cfg.arrival_rate_rps = 200;
  cfg.requests = requests;
  cfg.seed = 11;
  return GeneratePoissonTrace(cfg, Mrpc());
}

TEST(ServingEngineTest, ReplayIsDeterministicAtAnyThreadCount) {
  const auto trace = SmallTrace();
  ServingResult reference;
  for (std::size_t threads : {1u, 2u, 4u}) {
    auto cfg = SmallEngineConfig();
    cfg.threads = threads;
    ServingEngine engine(SmallModel(), cfg);
    ServingResult res = engine.Replay(trace);
    if (threads == 1) {
      reference = std::move(res);
      continue;
    }
    // Identical batches...
    ASSERT_EQ(res.batches.size(), reference.batches.size());
    for (std::size_t b = 0; b < res.batches.size(); ++b) {
      EXPECT_EQ(res.batches[b].indices, reference.batches[b].indices);
      EXPECT_EQ(res.batches[b].ready_s, reference.batches[b].ready_s);
      EXPECT_EQ(res.batches[b].seal, reference.batches[b].seal);
    }
    // ...identical report (virtual time: exact equality, not tolerance)...
    EXPECT_EQ(res.report().mean_latency_s, reference.report().mean_latency_s);
    EXPECT_EQ(res.report().p50_latency_s, reference.report().p50_latency_s);
    EXPECT_EQ(res.report().p99_latency_s, reference.report().p99_latency_s);
    EXPECT_EQ(res.report().throughput_rps, reference.report().throughput_rps);
    EXPECT_EQ(res.report().device_busy_frac,
              reference.report().device_busy_frac);
    // ...and bit-identical outputs.
    ASSERT_EQ(res.outputs.size(), reference.outputs.size());
    for (std::size_t i = 0; i < res.outputs.size(); ++i) {
      EXPECT_EQ(res.outputs[i], reference.outputs[i]) << "request " << i;
    }
  }
}

TEST(ServingEngineTest, OutputsBitExactVsSequentialForward) {
  const auto trace = SmallTrace(24);
  auto cfg = SmallEngineConfig();
  cfg.former.sort_by_length = true;  // exercise reordered dispatch
  ServingEngine engine(SmallModel(), cfg);

  // Push caller-provided embeddings so the sequential reference sees the
  // exact same inputs.
  Rng rng(33);
  std::vector<MatrixF> inputs;
  const std::size_t hidden = SmallModel().config().encoder.hidden;
  for (const auto& r : trace) {
    inputs.push_back(MakeInputEmbedding(rng, r.length, hidden));
    ASSERT_TRUE(engine.Push(r, inputs.back()));
  }
  const ServingResult res = engine.Drain();

  ASSERT_EQ(res.outputs.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(res.outputs[i], SmallModel().Forward(inputs[i], cfg.inference))
        << "request " << i;
  }
}

TEST(ServingEngineTest, EngineBatchesMatchSharedFormer) {
  const auto trace = SmallTrace();
  ServingEngine engine(SmallModel(), SmallEngineConfig());
  const ServingResult res = engine.Replay(trace);
  const auto expected = FormBatches(trace, SmallEngineConfig().former);
  ASSERT_EQ(res.batches.size(), expected.size());
  for (std::size_t b = 0; b < expected.size(); ++b) {
    EXPECT_EQ(res.batches[b].indices, expected[b].indices);
    EXPECT_EQ(res.batches[b].open_s, expected[b].open_s);
    EXPECT_EQ(res.batches[b].ready_s, expected[b].ready_s);
    EXPECT_EQ(res.batches[b].tokens, expected[b].tokens);
    EXPECT_EQ(res.batches[b].seal, expected[b].seal);
  }
}

TEST(ServingEngineTest, AgreesWithSimulatorOnSharedScenario) {
  PoissonTraceConfig arrivals;
  arrivals.arrival_rate_rps = 80;
  arrivals.requests = 48;
  arrivals.seed = 3;
  const auto trace = GeneratePoissonTrace(arrivals, Mrpc());

  auto cfg = SmallEngineConfig();
  cfg.former.max_batch = 8;
  cfg.former.timeout_s = 0.02;
  cfg.workers = 2;
  ServiceModelSpec spec;
  spec.base = ServiceModelSpec::Base::kAccelerator;
  spec.model = BertBase();
  cfg.service = BuildServiceModel(spec);
  const ServingReport sim =
      ScheduleFormedBatches(trace, FormBatches(trace, cfg.former),
                            cfg.workers, cfg.service)
          .report;

  ServingEngine engine(SmallModel(), cfg);
  const ServingResult res = engine.Replay(trace);
  const ServingReport& rep = res.report();

  // Same trace, same former, same service model, same accounting: the
  // engine reproduces the offline recurrence field for field.
  EXPECT_EQ(rep.requests, sim.requests);
  EXPECT_EQ(rep.batches, sim.batches);
  EXPECT_EQ(rep.mean_batch_size, sim.mean_batch_size);
  EXPECT_EQ(rep.mean_latency_s, sim.mean_latency_s);
  EXPECT_EQ(rep.p50_latency_s, sim.p50_latency_s);
  EXPECT_EQ(rep.p95_latency_s, sim.p95_latency_s);
  EXPECT_EQ(rep.p99_latency_s, sim.p99_latency_s);
  EXPECT_EQ(rep.throughput_rps, sim.throughput_rps);
  EXPECT_EQ(rep.device_busy_frac, sim.device_busy_frac);
  // And it actually computed something the recurrence cannot: outputs.
  EXPECT_EQ(res.outputs.size(), arrivals.requests);
}

TEST(ServingEngineTest, BoundedQueueRejectsAndAccountsConsistently) {
  auto cfg = SmallEngineConfig();
  cfg.queue_capacity = 4;
  // Glacial service: the queue cannot drain, so a burst must bounce.
  cfg.service = TokenLinear(0, 10.0);
  ServingEngine engine(SmallModel(), cfg);

  const auto trace = SmallTrace(32);
  std::size_t bounced = 0;
  for (const auto& r : trace) {
    if (!engine.Push(r)) ++bounced;
  }
  EXPECT_GT(bounced, 0u);
  const ServingResult res = engine.Drain();

  EXPECT_EQ(res.admission.offered, trace.size());
  EXPECT_EQ(res.admission.accepted + res.admission.rejected, trace.size());
  EXPECT_EQ(res.admission.rejected, bounced);
  EXPECT_EQ(res.report().requests, res.admission.accepted);
  EXPECT_EQ(res.outputs.size(), res.admission.accepted);
  EXPECT_LE(res.admission.peak_queue, cfg.queue_capacity);
  EXPECT_GE(res.admission.peak_queue, 1u);

  // The admitted sub-trace forms exactly the batches the engine executed.
  std::vector<TimedRequest> admitted;
  for (std::size_t id : res.offered_ids) admitted.push_back(trace[id]);
  const auto expected = FormBatches(admitted, cfg.former);
  ASSERT_EQ(res.batches.size(), expected.size());
  for (std::size_t b = 0; b < expected.size(); ++b) {
    EXPECT_EQ(res.batches[b].indices, expected[b].indices);
  }
}

TEST(ServingEngineTest, UnboundedQueueAcceptsEverything) {
  auto cfg = SmallEngineConfig();
  cfg.service = TokenLinear(0, 10.0);  // still glacial
  ServingEngine engine(SmallModel(), cfg);
  const auto trace = SmallTrace(16);
  const ServingResult res = engine.Replay(trace);
  EXPECT_EQ(res.admission.rejected, 0u);
  EXPECT_EQ(res.admission.accepted, trace.size());
  // The waiting room only holds unlaunched requests: early batches launch
  // onto the free workers, so the peak sits below the trace size.
  EXPECT_GE(res.admission.peak_queue, 1u);
  EXPECT_LE(res.admission.peak_queue, trace.size());
}

TEST(ServingEngineTest, BurstyArrivalsKeepAdmissionInvariants) {
  // Bursts of simultaneous arrivals against a small waiting room: offered
  // must split exactly into accepted + rejected, the peak queue must
  // respect the bound, and no rejected request may leak into the result.
  auto cfg = SmallEngineConfig();
  cfg.queue_capacity = 5;
  cfg.former.max_batch = 4;
  cfg.service = TokenLinear(1e-4, 5e-3);

  ServingEngine engine(SmallModel(), cfg);
  std::vector<bool> accepted;
  std::size_t offered = 0;
  for (std::size_t burst = 0; burst < 6; ++burst) {
    const double t = 0.01 * static_cast<double>(burst);
    for (std::size_t i = 0; i < 8; ++i) {  // 8 simultaneous arrivals
      accepted.push_back(engine.Push({t, 16 + 8 * (i % 3)}));
      ++offered;
      EXPECT_EQ(engine.admission().offered, offered);
      EXPECT_EQ(engine.admission().accepted + engine.admission().rejected,
                offered);
      EXPECT_LE(engine.queue_depth(), cfg.queue_capacity);
    }
  }
  const ServingResult res = engine.Drain();

  const std::size_t accepted_count = static_cast<std::size_t>(
      std::count(accepted.begin(), accepted.end(), true));
  EXPECT_GT(accepted_count, 0u);
  EXPECT_LT(accepted_count, offered);  // the bursts must overflow the room
  EXPECT_EQ(res.admission.offered, offered);
  EXPECT_EQ(res.admission.accepted, accepted_count);
  EXPECT_EQ(res.admission.rejected, offered - accepted_count);
  EXPECT_LE(res.admission.peak_queue, cfg.queue_capacity);

  // Rejected requests never appear in the result: outputs, report and the
  // offered-id mapping all cover exactly the accepted set.
  EXPECT_EQ(res.outputs.size(), accepted_count);
  EXPECT_EQ(res.report().requests, accepted_count);
  ASSERT_EQ(res.offered_ids.size(), accepted_count);
  std::size_t batched = 0;
  for (const FormedBatch& b : res.batches) batched += b.indices.size();
  EXPECT_EQ(batched, accepted_count);
  for (std::size_t id : res.offered_ids) {
    ASSERT_LT(id, accepted.size());
    EXPECT_TRUE(accepted[id]) << "rejected request " << id << " in result";
  }
}

TEST(ServingEngineTest, IntrospectionTracksVirtualTimeLoad) {
  auto cfg = SmallEngineConfig();
  cfg.former.max_batch = 2;
  cfg.former.timeout_s = 0.01;
  cfg.workers = 1;
  cfg.service = TokenLinear(0, 1.0);  // 1 s per batch
  ServingEngine engine(SmallModel(), cfg);

  EXPECT_EQ(engine.queue_depth(), 0u);
  EXPECT_EQ(engine.outstanding_tokens(), 0u);
  ASSERT_TRUE(engine.Push({0.0, 30}));
  EXPECT_EQ(engine.queue_depth(), 1u);
  EXPECT_EQ(engine.outstanding_tokens(), 30u);
  // Capacity seal at the second arrival: the batch launches immediately
  // (the worker is free), so the waiting room empties but the tokens stay
  // outstanding until the batch completes in virtual time.
  ASSERT_TRUE(engine.Push({0.001, 20}));
  engine.AdvanceTo(0.001);
  EXPECT_EQ(engine.queue_depth(), 0u);
  EXPECT_EQ(engine.outstanding_tokens(), 50u);
  // A later batch waits behind the 1 s service: it stays queued.
  ASSERT_TRUE(engine.Push({0.002, 40}));
  ASSERT_TRUE(engine.Push({0.003, 10}));
  engine.AdvanceTo(0.003);
  EXPECT_EQ(engine.queue_depth(), 2u);
  EXPECT_EQ(engine.outstanding_tokens(), 100u);
  // Past the first batch's completion the second launches; past both
  // completions nothing is outstanding.  AdvanceTo is idempotent.
  engine.AdvanceTo(1.5);
  engine.AdvanceTo(1.5);
  EXPECT_EQ(engine.queue_depth(), 0u);
  EXPECT_EQ(engine.outstanding_tokens(), 50u);
  engine.AdvanceTo(3.0);
  EXPECT_EQ(engine.outstanding_tokens(), 0u);
  (void)engine.Drain();
}

TEST(ServingEngineTest, AccountingOnlyModeSkipsTensorsButKeepsReport) {
  const auto trace = SmallTrace(20);
  auto cfg = SmallEngineConfig();
  ServingEngine functional(SmallModel(), cfg);
  const ServingResult real = functional.Replay(trace);

  auto virt_cfg = cfg;
  virt_cfg.execute = false;
  ServingEngine virt(SmallModel(), virt_cfg);
  const ServingResult sim = virt.Replay(trace);

  EXPECT_TRUE(sim.outputs.empty());
  EXPECT_EQ(sim.wall_s, 0.0);
  ASSERT_EQ(sim.batches.size(), real.batches.size());
  for (std::size_t b = 0; b < sim.batches.size(); ++b) {
    EXPECT_EQ(sim.batches[b].indices, real.batches[b].indices);
  }
  EXPECT_EQ(sim.report().mean_latency_s, real.report().mean_latency_s);
  EXPECT_EQ(sim.report().p99_latency_s, real.report().p99_latency_s);
  EXPECT_EQ(sim.report().throughput_rps, real.report().throughput_rps);
}

TEST(DispatchTest, PaddedServiceModelChargesForPadding) {
  const auto padded = Padded(1e-3, 0.01);
  // Uniform batch: same cost as token-linear.
  EXPECT_NEAR(padded({50, 50}), 0.01 + 1e-3 * 100, 1e-12);
  // Mixed batch: every member is padded to the longest.
  EXPECT_NEAR(padded({10, 50}), 0.01 + 1e-3 * 100, 1e-12);
  EXPECT_NEAR(padded({}), 0.01, 1e-12);
}

TEST(ServingEngineTest, DrainResetsForTheNextStream) {
  const auto trace = SmallTrace(12);
  ServingEngine engine(SmallModel(), SmallEngineConfig());
  const ServingResult first = engine.Replay(trace);
  EXPECT_EQ(engine.queue_depth(), 0u);
  EXPECT_EQ(engine.admission().offered, 0u);
  const ServingResult second = engine.Replay(trace);
  EXPECT_EQ(first.report().p99_latency_s, second.report().p99_latency_s);
  ASSERT_EQ(first.outputs.size(), second.outputs.size());
  for (std::size_t i = 0; i < first.outputs.size(); ++i) {
    EXPECT_EQ(first.outputs[i], second.outputs[i]);
  }
}

// ------------------------------------------------------ One event loop --

/// `inner`, counting every call into `calls`.
BatchServiceModel Counting(BatchServiceModel inner, std::size_t& calls) {
  return [inner = std::move(inner),
          &calls](const std::vector<std::size_t>& lengths) {
    ++calls;
    return inner(lengths);
  };
}

TEST(ServingEngineLoopTest, PricesEveryFormedBatchExactlyOnce) {
  auto trace = SmallTrace(40);
  for (std::size_t i = 0; i < trace.size(); ++i) trace[i].id = 1 + i % 7;
  std::size_t calls = 0;
  const BatchServiceModel service =
      Counting(TokenLinear(1e-4, 2e-3), calls);

  auto plain = SmallEngineConfig();
  plain.execute = false;
  plain.service = service;
  auto cached = plain;
  cached.cache.enabled = true;
  cached.cache.key_policy = CacheKeyPolicy::kRequestId;
  auto sharded = plain;
  sharded.backend = BackendMode::kSharded;
  sharded.shard.degree = 2;
  auto adaptive = plain;
  adaptive.adapt.enabled = true;
  adaptive.adapt.epoch_s = 0.002;
  adaptive.adapt.queue_ref = 1;
  adaptive.adapt.escalate_margin = 1.0;  // every cheap first pass re-runs
  adaptive.adapt.tiers = {ServiceTier{16, false, 1.0},
                          ServiceTier{4, true, 0.85}};
  adaptive.tier_services = {service, service};

  for (const ServingEngineConfig& cfg : {plain, cached, sharded, adaptive}) {
    calls = 0;
    ServingEngine engine(SmallModel(), cfg);
    const ServingResult res = engine.Replay(trace);
    EXPECT_GT(res.batches.size(), 0u);
    EXPECT_EQ(calls, res.batches.size());
  }
}

TEST(ServingEngineLoopTest, ScheduleMatchesOfflineReference) {
  const auto trace = SmallTrace(40);
  const BatchServiceModel service = TokenLinear(2e-4, 5e-3);
  for (std::size_t workers : {1u, 2u, 3u}) {
    auto cfg = SmallEngineConfig();
    cfg.execute = false;
    cfg.workers = workers;
    cfg.service = service;
    ServingEngine engine(SmallModel(), cfg);
    const ServingResult res = engine.Replay(trace);
    const DispatchSchedule ref =
        ScheduleFormedBatches(trace, res.batches, workers, service);
    EXPECT_EQ(res.schedule.launch_s, ref.launch_s) << workers;
    EXPECT_EQ(res.schedule.done_s, ref.done_s) << workers;
    EXPECT_EQ(res.schedule.service_s, ref.service_s) << workers;
    EXPECT_EQ(res.schedule.worker_of, ref.worker_of) << workers;
    EXPECT_EQ(res.report().mean_latency_s, ref.report.mean_latency_s);
    EXPECT_EQ(res.report().p99_latency_s, ref.report.p99_latency_s);
    EXPECT_EQ(res.report().throughput_rps, ref.report.throughput_rps);
    EXPECT_EQ(res.report().device_busy_frac, ref.report.device_busy_frac);
  }
}

TEST(ServingEngineLoopTest, OneTierAdaptiveFormsTheSharedFormersBatches) {
  // Simultaneous arrivals, and arrivals exactly at open_s + timeout_s:
  // both join the open batch, as in FormBatches.
  const auto trace =
      HandTrace({{0.0, 10}, {0.0, 20}, {0.25, 30}, {0.25, 40}, {0.5, 50}});
  for (double timeout : {0.0, 0.25}) {
    auto cfg = SmallEngineConfig();
    cfg.execute = false;
    cfg.former.timeout_s = timeout;
    cfg.adapt.enabled = true;
    cfg.adapt.tiers = {ServiceTier{16, false, 1.0}};
    ServingEngine engine(SmallModel(), cfg);
    const ServingResult res = engine.Replay(trace);
    const auto expected = FormBatches(trace, cfg.former);
    ASSERT_EQ(res.batches.size(), expected.size()) << timeout;
    for (std::size_t b = 0; b < expected.size(); ++b) {
      EXPECT_EQ(res.batches[b].indices, expected[b].indices) << timeout;
      EXPECT_EQ(res.batches[b].open_s, expected[b].open_s) << timeout;
      EXPECT_EQ(res.batches[b].ready_s, expected[b].ready_s) << timeout;
      EXPECT_EQ(res.batches[b].seal, expected[b].seal) << timeout;
    }
  }
}

TEST(ServingEngineTest, ValidatesConfigAndPushArguments) {
  EXPECT_THROW(
      {
        auto cfg = SmallEngineConfig();
        cfg.workers = 0;
        ServingEngine engine(SmallModel(), cfg);
      },
      std::invalid_argument);
  EXPECT_THROW(
      {
        auto cfg = SmallEngineConfig();
        cfg.former.max_batch = 0;
        ServingEngine engine(SmallModel(), cfg);
      },
      std::invalid_argument);

  ServingEngine engine(SmallModel(), SmallEngineConfig());
  // Out-of-order arrivals are a caller bug, not a policy decision.
  ASSERT_TRUE(engine.Push({1.0, 16}));
  EXPECT_THROW(engine.Push({0.5, 16}), std::invalid_argument);
  // Wrong embedding shape.
  Rng rng(1);
  const std::size_t hidden = SmallModel().config().encoder.hidden;
  EXPECT_THROW(engine.Push({2.0, 16}, MakeInputEmbedding(rng, 8, hidden)),
               std::invalid_argument);
  (void)engine.Drain();

  // A non-finite arrival leaves the event loop no finite time to advance
  // to: it throws, as the first arrival and after a finite one.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double t :
       {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
    ServingEngine fresh(SmallModel(), SmallEngineConfig());
    EXPECT_THROW(fresh.Push({t, 16}), std::invalid_argument) << t;
    ASSERT_TRUE(fresh.Push({1.0, 16}));
    EXPECT_THROW(fresh.Push({t, 16}), std::invalid_argument) << t;
    EXPECT_EQ(fresh.Drain().admission.offered, 1u) << t;
  }
}

}  // namespace
}  // namespace latte
