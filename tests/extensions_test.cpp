// Tests for the extended system features: padding masks in the sparse
// path, the multi-layer inference engine, offline serving on the
// accelerator twin and schedule export.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "fpga/accelerator.hpp"
#include "fpga/trace.hpp"
#include "model/inference.hpp"
#include "search/json_io.hpp"
#include "serve/service_model.hpp"
#include "nn/ops.hpp"
#include "tensor/matmul.hpp"
#include "workload/synthetic.hpp"

namespace latte {
namespace {

AttentionProblem Problem(std::uint64_t seed, std::size_t n,
                         std::size_t d = 32) {
  Rng rng(seed);
  AttentionWorkloadConfig cfg;
  cfg.head_dim = d;
  return GenerateAttentionProblem(rng, n, cfg);
}

// ---------------------------------------------------------- padding mask --

TEST(MaskedSparseTest, NeverSelectsPaddingKeys) {
  const auto p = Problem(1, 64);
  SparseAttentionConfig cfg;
  cfg.top_k = 16;
  cfg.valid_len = 40;
  SparseAttentionStats stats;
  SparseAttention(p.q, p.k, p.v, cfg, &stats);
  for (const auto j : stats.candidates) EXPECT_LT(j, 40u);
  EXPECT_EQ(stats.selected_per_row, 16u);
}

TEST(MaskedSparseTest, EqualsMaskedDenseWhenKCoversValid) {
  const auto p = Problem(2, 48);
  SparseAttentionConfig cfg;
  cfg.top_k = 20;
  cfg.valid_len = 20;  // k covers every valid key
  const auto sparse = SparseAttention(p.q, p.k, p.v, cfg);
  Workspace ws;
  const auto dense = DenseAttentionMasked(p.q, p.k, p.v, 20, ws);
  for (std::size_t i = 0; i < sparse.size(); ++i) {
    EXPECT_NEAR(sparse.flat()[i], dense.flat()[i], 2e-3f);
  }
}

TEST(MaskedSparseTest, ValidLenBeyondNIsAllValid) {
  const auto p = Problem(3, 16);
  SparseAttentionConfig cfg;
  cfg.top_k = 16;
  cfg.valid_len = 999;
  const auto a = SparseAttention(p.q, p.k, p.v, cfg);
  cfg.valid_len = 0;
  const auto b = SparseAttention(p.q, p.k, p.v, cfg);
  EXPECT_EQ(a, b);
}

TEST(MaskedDenseTest, PaddingGetsZeroWeight) {
  // With only the first key valid, the output must equal V row 0.
  const auto p = Problem(4, 8);
  Workspace ws;
  const auto out = DenseAttentionMasked(p.q, p.k, p.v, 1, ws);
  for (std::size_t i = 0; i < out.rows(); ++i) {
    for (std::size_t c = 0; c < out.cols(); ++c) {
      EXPECT_NEAR(out(i, c), p.v(0, c), 1e-5f);
    }
  }
}

// ------------------------------------------------------- ModelInstance ---

ModelConfig TinyModel() {
  ModelConfig m = ScaledDown(BertBase(), 6);  // 2 layers, hidden 128
  return m;
}

TEST(ModelInstanceTest, ScaledDownShape) {
  const auto m = TinyModel();
  EXPECT_EQ(m.layers, 2u);
  EXPECT_EQ(m.encoder.head_dim(), 64u);  // head_dim preserved
  EXPECT_EQ(m.encoder.hidden % m.encoder.heads, 0u);
}

TEST(ModelInstanceTest, DeterministicForward) {
  const auto m = TinyModel();
  ModelInstance a(m, 42), b(m, 42);
  Rng rng(9);
  const auto x = MakeInputEmbedding(rng, 20, m.encoder.hidden);
  InferenceConfig inf;
  inf.mode = InferenceMode::kDenseFloat;
  EXPECT_EQ(a.Forward(x, inf), b.Forward(x, inf));
}

TEST(ModelInstanceTest, FourModesAgreeOnConcentratedInput) {
  const auto m = TinyModel();
  ModelInstance inst(m, 42);
  Rng rng(10);
  const auto x = MakeInputEmbedding(rng, 40, m.encoder.hidden);

  InferenceConfig dense_f;
  dense_f.mode = InferenceMode::kDenseFloat;
  const auto ref = inst.Forward(x, dense_f);

  InferenceConfig sparse_i8;
  sparse_i8.mode = InferenceMode::kSparseInt8;
  sparse_i8.sparse.top_k = 40;  // degenerate-dense isolates datapath error
  const auto hw = inst.Forward(x, sparse_i8);

  EXPECT_GT(MeanRowCosine(hw, ref), 0.98);
}

TEST(ModelInstanceTest, SparseStatsReported) {
  const auto m = TinyModel();
  ModelInstance inst(m, 1);
  Rng rng(11);
  const auto x = MakeInputEmbedding(rng, 30, m.encoder.hidden);
  InferenceConfig inf;
  inf.mode = InferenceMode::kSparseFloat;
  inf.sparse.top_k = 8;
  std::vector<LayerRunStats> stats;
  inst.Forward(x, inf, &stats);
  ASSERT_EQ(stats.size(), m.layers);
  for (const auto& s : stats) {
    // heads * n * k * d * 2 exact MACs per layer.
    EXPECT_EQ(s.exact_macs,
              m.encoder.heads * 30u * 8u * m.encoder.head_dim() * 2u);
    EXPECT_GT(s.lut_multiplies, 0u);
  }
}

TEST(ModelInstanceTest, DenseModesReportNoSparseWork) {
  const auto m = TinyModel();
  ModelInstance inst(m, 1);
  Rng rng(12);
  const auto x = MakeInputEmbedding(rng, 10, m.encoder.hidden);
  InferenceConfig inf;
  inf.mode = InferenceMode::kDenseInt8;
  std::vector<LayerRunStats> stats;
  inst.Forward(x, inf, &stats);
  for (const auto& s : stats) {
    EXPECT_EQ(s.exact_macs, 0u);
    EXPECT_EQ(s.lut_multiplies, 0u);
  }
}

// The int8 sparse encoder stack rebuilt by hand from public calls, the way
// the end-to-end benchmark's traced encoder rebuilds it.
MatrixF HandBuiltSparseInt8(const ModelInstance& inst, const MatrixF& x,
                            const SparseAttentionConfig& sa) {
  const EncoderConfig& cfg = inst.config().encoder;
  MatrixF h = x;
  for (std::size_t l = 0; l < inst.layer_count(); ++l) {
    const auto w = QuantizedEncoderWeights::FromFloat(inst.layer(l));
    const auto qh = SplitHeads(w.wq.Forward(h), cfg.heads);
    const auto kh = SplitHeads(w.wk.Forward(h), cfg.heads);
    const auto vh = SplitHeads(w.wv.Forward(h), cfg.heads);
    std::vector<MatrixF> ctx;
    for (std::size_t i = 0; i < cfg.heads; ++i) {
      ctx.push_back(SparseAttention(qh[i], kh[i], vh[i], sa));
    }
    MatrixF x1 = Add(h, w.wo.Forward(ConcatHeads(ctx)));
    LayerNormInPlace(x1, w.ln1_gamma, w.ln1_beta);
    MatrixF f = w.ffn1.Forward(x1);
    GeluInPlace(f);
    h = Add(x1, w.ffn2.Forward(f));
    LayerNormInPlace(h, w.ln2_gamma, w.ln2_beta);
  }
  return h;
}

TEST(ModelInstanceTest, SparseInt8MatchesHandBuiltLayerBitExactly) {
  const auto m = TinyModel();
  const ModelInstance inst(m, 2022);
  InferenceConfig inf;
  inf.mode = InferenceMode::kSparseInt8;
  inf.sparse.top_k = 12;
  Rng rng(13);
  std::vector<MatrixF> xs;
  for (std::size_t n : {9u, 33u, 20u}) {
    xs.push_back(MakeInputEmbedding(rng, n, m.encoder.hidden));
  }

  Workspace ws;  // reused across sequences, as a batch worker reuses it
  std::vector<MatrixF> refs;
  for (const MatrixF& x : xs) {
    refs.push_back(HandBuiltSparseInt8(inst, x, inf.sparse));
    AttentionScratch scratch;
    EXPECT_EQ(inst.Forward(x, inf), refs.back());
    EXPECT_EQ(inst.Forward(x, inf, nullptr, &scratch), refs.back());
    EXPECT_EQ(inst.Forward(x, inf, nullptr, nullptr, &ws), refs.back());
  }
  BatchRunner runner(2);
  EXPECT_EQ(inst.ForwardBatch(xs, inf, runner), refs);
}

TEST(ModelInstanceTest, EveryModeIsBitEqualWithAndWithoutWorkspace) {
  const auto m = TinyModel();
  const ModelInstance inst(m, 7);
  Rng rng(14);
  const auto a = MakeInputEmbedding(rng, 24, m.encoder.hidden);
  const auto b = MakeInputEmbedding(rng, 11, m.encoder.hidden);
  for (InferenceMode mode :
       {InferenceMode::kDenseFloat, InferenceMode::kSparseFloat,
        InferenceMode::kDenseInt8, InferenceMode::kSparseInt8}) {
    InferenceConfig inf;
    inf.mode = mode;
    inf.sparse.top_k = 8;
    Workspace ws;  // warmed by `a`, then reused for `b`
    for (const MatrixF* x : {&a, &b}) {
      std::vector<LayerRunStats> plain_stats, ws_stats;
      EXPECT_EQ(inst.Forward(*x, inf, &plain_stats),
                inst.Forward(*x, inf, &ws_stats, nullptr, &ws))
          << "mode " << static_cast<int>(mode);
      ASSERT_EQ(plain_stats.size(), ws_stats.size());
      for (std::size_t l = 0; l < ws_stats.size(); ++l) {
        EXPECT_EQ(plain_stats[l].exact_macs, ws_stats[l].exact_macs);
        EXPECT_EQ(plain_stats[l].lut_multiplies, ws_stats[l].lut_multiplies);
      }
    }
  }
}

TEST(ModelInstanceTest, ScaledDownRejectsZero) {
  EXPECT_THROW(ScaledDown(BertBase(), 0), std::invalid_argument);
}

// ------------------------------------------------------------- Serving ---

// One Poisson trace through the shared former (max_batch 8, 20 ms flush)
// and the offline dispatch recurrence on `workers` slots, priced by the
// accelerator twin.
ServingReport ServeOffline(const DatasetSpec& dataset, double rate_rps,
                           std::size_t requests, std::size_t workers = 1,
                           const AcceleratorConfig& accel = {}) {
  PoissonTraceConfig arrivals;
  arrivals.arrival_rate_rps = rate_rps;
  arrivals.requests = requests;
  BatchFormerConfig former;
  former.max_batch = 8;
  ServiceModelSpec spec;
  spec.base = ServiceModelSpec::Base::kAccelerator;
  spec.model = BertBase();
  spec.accel = accel;
  const auto trace = GeneratePoissonTrace(arrivals, dataset);
  return ScheduleFormedBatches(trace, FormBatches(trace, former), workers,
                               BuildServiceModel(spec))
      .report;
}

TEST(ServingTest, BasicAccounting) {
  const auto rep = ServeOffline(Mrpc(), 40, 96);
  EXPECT_EQ(rep.requests, 96u);
  EXPECT_GT(rep.batches, 0u);
  EXPECT_GE(rep.mean_batch_size, 1.0);
  EXPECT_LE(rep.mean_batch_size, 8.0);
  EXPECT_GT(rep.mean_latency_s, 0.0);
  EXPECT_LE(rep.p50_latency_s, rep.p95_latency_s);
  EXPECT_LE(rep.p95_latency_s, rep.p99_latency_s);
  EXPECT_GT(rep.throughput_rps, 0.0);
  EXPECT_GE(rep.device_busy_frac, 0.0);
  EXPECT_LE(rep.device_busy_frac, 1.0 + 1e-9);
}

TEST(ServingTest, LengthAwareSustainsHigherLoadThanBaseline) {
  const auto aware = ServeOffline(Rte(), 60, 128);

  AcceleratorConfig padded;
  padded.mode = FpgaMode::kBaseline;
  padded.baseline_pad_to = static_cast<std::size_t>(Rte().max_len);
  const auto base = ServeOffline(Rte(), 60, 128, 1, padded);

  EXPECT_LT(aware.p95_latency_s, base.p95_latency_s);
  EXPECT_LE(aware.device_busy_frac, base.device_busy_frac + 1e-9);
}

TEST(ServingTest, HigherLoadRaisesTailLatency) {
  const auto a = ServeOffline(Mrpc(), 10, 96);
  const auto b = ServeOffline(Mrpc(), 300, 96);
  EXPECT_LE(a.p99_latency_s, b.p99_latency_s * 2.0);  // loose sanity
  EXPECT_GE(b.device_busy_frac, a.device_busy_frac - 0.05);
}

TEST(ServingWorkersTest, MoreWorkersDoNotHurtSaturatedThroughput) {
  // Deeply saturated: queueing dominates.
  const auto one_rep = ServeOffline(Mrpc(), 5000, 64, 1);
  const auto two_rep = ServeOffline(Mrpc(), 5000, 64, 2);

  EXPECT_GT(two_rep.throughput_rps, one_rep.throughput_rps * 1.5);
  EXPECT_LT(two_rep.p99_latency_s, one_rep.p99_latency_s);
  EXPECT_LE(two_rep.device_busy_frac, 1.0 + 1e-9);
}

// --------------------------------------------------------------- Trace ---

ScheduleResult SmallSchedule() {
  const auto ops =
      EncoderOps(BertBase().encoder, AttentionMode::kSparseTopK, 30);
  const auto models = BuildStageTimings(ops, AlveoU280Slr0(), 100);
  PipelineSimConfig cfg;
  cfg.layers = 2;
  return SimulatePipeline({120, 100, 80}, models, cfg);
}

TEST(TraceTest, ChromeTraceContainsAllJobs) {
  // 32 padded BERT-large sequences run for seconds: every event must still
  // carry its job's start and duration to microsecond precision.
  AcceleratorConfig cfg;
  cfg.mode = FpgaMode::kBaseline;
  const auto schedule =
      RunAccelerator(BertLarge(), std::vector<std::size_t>(32, 384), cfg);
  ASSERT_GT(schedule.makespan, 1.0);
  const auto doc = search::ParseJson(ToChromeTrace(schedule).str());
  const auto& events = doc.Get("traceEvents").array;
  const std::size_t stages = schedule.stage_busy.size();
  ASSERT_EQ(events.size(), stages + schedule.jobs.size());
  for (std::size_t s = 0; s < stages; ++s) {
    EXPECT_EQ(events[s].Get("ph").string, "M");
    EXPECT_EQ(events[s].Get("args").Get("name").string,
              "stage " + std::to_string(s + 1));
  }
  for (std::size_t i = 0; i < schedule.jobs.size(); ++i) {
    const auto& job = schedule.jobs[i];
    const auto& ev = events[stages + i];
    EXPECT_EQ(ev.Get("ph").string, "X");
    EXPECT_EQ(ev.Get("pid").number, static_cast<double>(job.stage));
    const double ts = job.start * 1e6;
    const double dur = (job.end - job.start) * 1e6;
    EXPECT_NEAR(ev.Get("ts").number, ts, 1e-8 * ts) << "job " << i;
    EXPECT_NEAR(ev.Get("dur").number, dur, 1e-8 * dur) << "job " << i;
  }
}

TEST(TraceTest, WriteFileRoundTrip) {
  const auto json = ToChromeTrace(SmallSchedule());
  const std::string path = "trace_test_tmp.json";
  ASSERT_TRUE(json.WriteFile(path));
  std::ostringstream read;
  read << std::ifstream(path).rdbuf();
  std::remove(path.c_str());
  EXPECT_EQ(read.str(), json.str() + "\n");
  EXPECT_FALSE(json.WriteFile("/nonexistent-dir/x/y.json"));
}

}  // namespace
}  // namespace latte
