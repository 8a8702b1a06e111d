// Encode workloads: host time of the functional datapath (model -> nn ->
// core -> tensor) on one BERT-base-shaped int8 sparse layer.
//
// The untraced run is a closed loop with one client: batches of 8 in
// arrival order through ModelInstance::ForwardBatch on a 1-thread
// BatchRunner (1 thread because pass-to-pass spread grows several-fold
// with a second worker on a shared host, and claims are per core).  The
// traced run rebuilds the layer from the public calls
// QuantizedEncoderForward, SparseAttention and SelectCandidates make, with
// a span around each, and checks the rebuild reproduces the untraced
// outputs and candidate lists bit for bit.

#include <algorithm>
#include <cmath>
#include <memory>

#include "harness.hpp"

namespace latte::e2e {
namespace {

constexpr std::size_t kBatch = 8;
constexpr std::size_t kMinPasses = 3;
// The timed sequences' lengths and their arrival order are fixed; --seed
// draws their embeddings.  Every seed then does the same arithmetic and
// allocates in the same order (peak RSS varied by up to 10% with a seeded
// order), so a change in host time or memory is the code's, not the
// draw's.
constexpr std::uint64_t kOrderSeed = 2022;
// The fidelity sample is fixed too, so `accuracy` repeats exactly on
// every run of one build.
constexpr std::uint64_t kFidelitySeed = 2022;
constexpr std::size_t kFidelitySequences = 8;
constexpr double kSloS = 0.5;
// Enough priced batches that ~25 lie beyond sim_p95_ms.
constexpr std::size_t kTwinBatches = 512;

struct EncodeWorkload {
  DatasetSpec dataset;
  std::size_t sequences = 0;  ///< one pass; sized to ~1/4 of a 12 s run
};

EncodeWorkload Lookup(const std::string& name) {
  if (name == "encode-short") return {Mrpc(), 48};
  return {Squad(), 16};
}

InferenceConfig SparseInt8() {
  InferenceConfig inf;
  inf.mode = InferenceMode::kSparseInt8;
  inf.sparse.top_k = 30;
  inf.sparse.bits = 1;
  return inf;
}

/// Everything built before the timed region.
struct Setup {
  explicit Setup(const ModelConfig& cfg) : model(cfg, kWeightSeed) {}

  ModelInstance model;  ///< weights + int8 quantization
  std::vector<std::vector<MatrixF>> batches;  ///< arrival order
  std::vector<std::vector<std::size_t>> batch_lengths;
  std::size_t tokens = 0;  ///< per pass
  std::vector<MatrixF> fidelity_inputs;
  BatchServiceModel twin;  ///< accelerator twin of the same layer
  double gen_s = 0;        ///< input synthesis alone
};

std::unique_ptr<Setup> Build(const EncodeWorkload& w, std::uint64_t seed) {
  auto s = std::make_unique<Setup>(BertBaseLayer());
  const std::size_t hidden = s->model.config().encoder.hidden;
  const auto gen0 = Clock::now();
  const std::vector<std::size_t> lengths =
      QuantileLengths(w.dataset, w.sequences, kOrderSeed);
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    if (i % kBatch == 0) {
      s->batches.emplace_back();
      s->batch_lengths.emplace_back();
    }
    s->batches.back().push_back(
        SynthesizeRequestEmbedding(seed, i, lengths[i], hidden));
    s->batch_lengths.back().push_back(lengths[i]);
    s->tokens += lengths[i];
  }
  s->gen_s = SecondsSince(gen0);
  const std::vector<std::size_t> fid_lengths =
      QuantileLengths(w.dataset, kFidelitySequences, kFidelitySeed);
  for (std::size_t i = 0; i < fid_lengths.size(); ++i) {
    s->fidelity_inputs.push_back(
        SynthesizeRequestEmbedding(kFidelitySeed, i, fid_lengths[i], hidden));
  }
  ServiceModelSpec spec;
  spec.base = ServiceModelSpec::Base::kAccelerator;
  spec.model = s->model.config();
  spec.accel.top_k = SparseInt8().sparse.top_k;
  s->twin = BuildServiceModel(spec);
  return s;
}

/// Member lengths of the timed batches, then of seeded regroupings of the
/// same sequences into batches of kBatch, until there are kTwinBatches.
std::vector<std::vector<std::size_t>> TwinBatches(const Setup& s,
                                                  std::uint64_t seed) {
  std::vector<std::vector<std::size_t>> batches = s.batch_lengths;
  std::vector<std::size_t> lengths;
  for (const auto& b : s.batch_lengths) {
    lengths.insert(lengths.end(), b.begin(), b.end());
  }
  Rng rng(MixHash64(seed));
  while (batches.size() < kTwinBatches) {
    for (std::size_t i = lengths.size(); i > 1; --i) {
      std::swap(lengths[i - 1], lengths[rng.NextIndex(i)]);
    }
    for (std::size_t i = 0; i < lengths.size(); i += kBatch) {
      batches.emplace_back(lengths.begin() + i,
                           lengths.begin() + std::min(i + kBatch, lengths.size()));
    }
  }
  return batches;
}

/// Mean row cosine of the FPGA datapath (kSparseInt8) against the dense
/// float reference on the fixed fidelity sample.
double FidelityCosine(const Setup& s) {
  InferenceConfig dense;
  dense.mode = InferenceMode::kDenseFloat;
  double sum = 0;
  std::size_t rows = 0;
  for (const MatrixF& x : s.fidelity_inputs) {
    const MatrixF ref = s.model.Forward(x, dense);
    const MatrixF got = s.model.Forward(x, SparseInt8());
    for (std::size_t r = 0; r < ref.rows(); ++r) {
      double dot = 0, na = 0, nb = 0;
      for (std::size_t c = 0; c < ref.cols(); ++c) {
        dot += static_cast<double>(ref(r, c)) * got(r, c);
        na += static_cast<double>(ref(r, c)) * ref(r, c);
        nb += static_cast<double>(got(r, c)) * got(r, c);
      }
      sum += dot / std::sqrt(na * nb);
      ++rows;
    }
  }
  return sum / static_cast<double>(rows);
}

// ----------------------------------------------------------- traced run --

enum Span : std::size_t {
  kSequence,  // container: one sequence through every layer
  kQkv,
  kHeads,      // SplitHeads / ConcatHeads / residual Add
  kAttention,  // container: one head of SparseAttention
  kQuantize,
  kLut,
  kTopK,
  kGather,
  kFused,
  kContext,
  kOutProj,
  kLayerNorm,
  kFfn1,
  kGelu,
  kFfn2,
};

std::vector<std::string> SpanNames() {
  return {"encode.sequence", "nn.qkv",          "nn.heads",
          "core.attention",  "core.atsel_quantize", "core.atsel_lut",
          "core.atsel_topk", "core.gather",     "core.fused",
          "core.context",    "nn.out_proj",     "nn.layernorm",
          "nn.ffn1",         "nn.gelu",         "nn.ffn2"};
}

/// One head's At-Sel inputs and output, captured for the candidate check.
struct HeadCapture {
  MatrixF q, k;
  std::vector<std::vector<std::uint32_t>> candidates;
};

/// The int8 sparse encoder rebuilt from its public calls, one span per
/// call.  Bit-exact against ModelInstance::Forward in kSparseInt8 mode.
class TracedEncoder {
 public:
  TracedEncoder(const ModelInstance& model, const SparseAttentionConfig& sa,
                SpanTrace& trace)
      : cfg_(model.config().encoder), sa_(sa), trace_(trace) {
    for (std::size_t l = 0; l < model.layer_count(); ++l) {
      layers_.push_back(QuantizedEncoderWeights::FromFloat(model.layer(l)));
    }
  }

  MatrixF Forward(const MatrixF& x, std::uint64_t request,
                  std::vector<HeadCapture>* capture) {
    SpanTrace::Scope seq(trace_, kSequence, request);
    MatrixF h = x;
    for (const QuantizedEncoderWeights& w : layers_) {
      h = Layer(h, w, request, capture);
    }
    return h;
  }

  double int8_ops = 0;  ///< 2 * n * in * out per QuantizedLinear::Forward
  double lut_ops = 0;   ///< 2 * n_q * n_k * d per LUT score matrix
  std::size_t topk_pushes = 0;
  std::size_t topk_inserts = 0;

 private:
  MatrixF Linear(const QuantizedLinear& l, const MatrixF& x, Span span,
                 std::uint64_t request) {
    int8_ops += 2.0 * static_cast<double>(x.rows()) *
                static_cast<double>(l.in_features()) *
                static_cast<double>(l.out_features());
    SpanTrace::Scope s(trace_, span, request);
    return l.Forward(x);
  }

  MatrixF Layer(const MatrixF& x, const QuantizedEncoderWeights& w,
                std::uint64_t request, std::vector<HeadCapture>* capture) {
    const MatrixF q = Linear(w.wq, x, kQkv, request);
    const MatrixF k = Linear(w.wk, x, kQkv, request);
    const MatrixF v = Linear(w.wv, x, kQkv, request);
    std::vector<MatrixF> qh, kh, vh;
    {
      SpanTrace::Scope s(trace_, kHeads, request);
      qh = SplitHeads(q, cfg_.heads);
      kh = SplitHeads(k, cfg_.heads);
      vh = SplitHeads(v, cfg_.heads);
    }
    std::vector<MatrixF> ctx;
    ctx.reserve(cfg_.heads);
    for (std::size_t h = 0; h < cfg_.heads; ++h) {
      std::vector<std::vector<std::uint32_t>> cand;
      {
        SpanTrace::Scope s(trace_, kAttention, request);
        ctx.push_back(Attention(qh[h], kh[h], vh[h], request, cand));
      }
      if (capture != nullptr) {
        capture->push_back({std::move(qh[h]), std::move(kh[h]), std::move(cand)});
      }
    }
    MatrixF cat;
    {
      SpanTrace::Scope s(trace_, kHeads, request);
      cat = ConcatHeads(ctx);
    }
    const MatrixF a = Linear(w.wo, cat, kOutProj, request);
    MatrixF x1;
    {
      SpanTrace::Scope s(trace_, kHeads, request);
      x1 = Add(x, a);
    }
    {
      SpanTrace::Scope s(trace_, kLayerNorm, request);
      LayerNormInPlace(x1, w.ln1_gamma, w.ln1_beta);
    }
    MatrixF f = Linear(w.ffn1, x1, kFfn1, request);
    {
      SpanTrace::Scope s(trace_, kGelu, request);
      GeluInPlace(f);
    }
    f = Linear(w.ffn2, f, kFfn2, request);
    MatrixF out;
    {
      SpanTrace::Scope s(trace_, kHeads, request);
      out = Add(x1, f);
    }
    {
      SpanTrace::Scope s(trace_, kLayerNorm, request);
      LayerNormInPlace(out, w.ln2_gamma, w.ln2_beta);
    }
    return out;
  }

  /// SparseAttention(q, k, v, sa_, stats, scratch), call by call.
  MatrixF Attention(const MatrixF& q, const MatrixF& k, const MatrixF& v,
                    std::uint64_t request,
                    std::vector<std::vector<std::uint32_t>>& cand) {
    const std::size_t n = q.rows();
    const std::size_t d = q.cols();
    // Stage 1: SelectCandidates.
    QuantizedMatrix qq, qk;
    {
      SpanTrace::Scope s(trace_, kQuantize, request);
      qq = Quantize(q, sa_.bits);
      qk = Quantize(k, sa_.bits);
    }
    MatrixI32 approx;
    {
      SpanTrace::Scope s(trace_, kLut, request);
      approx = lut_.ScoreMatrix(qq, qk);
    }
    lut_ops += 2.0 * static_cast<double>(n) * static_cast<double>(k.rows()) *
               static_cast<double>(d);
    {
      SpanTrace::Scope s(trace_, kTopK, request);
      const std::size_t valid =
          sa_.valid_len == 0 ? k.rows() : std::min(sa_.valid_len, k.rows());
      StreamingTopK sorter(sa_.top_k);
      cand.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        sorter.Reset();
        auto row = approx.row(i);
        for (std::size_t j = 0; j < valid; ++j) {
          topk_inserts += sorter.Push(row[j], static_cast<std::uint32_t>(j));
        }
        topk_pushes += valid;
        cand[i].clear();
        for (const ScoredIndex& si : sorter.Result()) cand[i].push_back(si.index);
      }
    }
    // Stage 2: gather, fused score kernel, weighted context per row.
    MatrixF out(n, v.cols());
    FusedKernelConfig fk;
    fk.scale = 1.f / std::sqrt(static_cast<float>(d));
    fk.unroll = sa_.unroll;
    scratch_.ReserveContext(v.cols());
    const std::span<float> z(scratch_.ctx.data(), v.cols());
    for (std::size_t i = 0; i < n; ++i) {
      {
        SpanTrace::Scope s(trace_, kGather, request);
        GatherRowsInto(k, cand[i], scratch_.ks);
        GatherRowsInto(v, cand[i], scratch_.vs);
      }
      {
        SpanTrace::Scope s(trace_, kFused, request);
        FusedScoreKernel(q.row(i), scratch_.ks, fk, scratch_.scores);
      }
      {
        SpanTrace::Scope s(trace_, kContext, request);
        WeightedContext(scratch_.scores, scratch_.vs, z);
      }
      std::copy(z.begin(), z.end(), out.row(i).begin());
    }
    return out;
  }

  EncoderConfig cfg_;
  SparseAttentionConfig sa_;
  SpanTrace& trace_;
  std::vector<QuantizedEncoderWeights> layers_;
  LutMultiplier lut_;
  AttentionScratch scratch_;
};

/// The library's own selection on the captured heads, compared with the
/// rebuilt top-k.
bool CandidatesMatch(const std::vector<HeadCapture>& heads,
                     const SparseAttentionConfig& sa) {
  SelectorConfig sel;
  sel.top_k = sa.top_k;
  sel.bits = sa.bits;
  sel.valid_len = sa.valid_len;
  for (const HeadCapture& h : heads) {
    if (SelectCandidates(h.q, h.k, sel).candidates != h.candidates) {
      return false;
    }
  }
  return true;
}

RunResult Traced(const Options& opts, const Setup& s) {
  RunResult r;
  const InferenceConfig inf = SparseInt8();
  BatchRunner runner(1);
  Workspace& ws = runner.workspace(0);
  SpanTrace trace(SpanNames());
  TracedEncoder traced(s.model, inf.sparse, trace);

  std::vector<MatrixF> reference;
  for (const auto& batch : s.batches) {
    for (MatrixF& y : s.model.ForwardBatch(batch, inf, runner)) {
      reference.push_back(std::move(y));  // warm-up pass
    }
  }

  std::vector<double> untraced_s, sequential_s, traced_s;
  bool outputs_exact = true, candidates_exact = true;
  const auto start = Clock::now();
  do {
    const bool first = traced_s.empty();
    auto t0 = Clock::now();
    std::size_t seq = 0;
    for (const auto& batch : s.batches) {
      for (MatrixF& y : s.model.ForwardBatch(batch, inf, runner)) {
        reference[seq++] = std::move(y);
      }
    }
    untraced_s.push_back(SecondsSince(t0));

    // The same items one by one, as ForwardBatch's worker calls them:
    // the difference is the runtime's own overhead.
    t0 = Clock::now();
    for (const auto& batch : s.batches) {
      for (const MatrixF& x : batch) {
        s.model.Forward(x, inf, nullptr, &ws.attention(), &ws);
      }
    }
    sequential_s.push_back(SecondsSince(t0));

    trace.set_recording(first);
    std::vector<HeadCapture> capture;
    std::vector<MatrixF> rebuilt;
    t0 = Clock::now();
    seq = 0;
    for (const auto& batch : s.batches) {
      for (const MatrixF& x : batch) {
        rebuilt.push_back(traced.Forward(x, seq++, first ? &capture : nullptr));
      }
    }
    traced_s.push_back(SecondsSince(t0));
    trace.set_recording(false);
    for (std::size_t i = 0; i < rebuilt.size(); ++i) {
      outputs_exact = outputs_exact && BitEqual(rebuilt[i], reference[i]);
    }
    if (first) candidates_exact = CandidatesMatch(capture, inf.sparse);
    r.attempted += rebuilt.size();
  } while (KeepGoing(start, traced_s.size(), 1,
                     untraced_s.back() + sequential_s.back() + traced_s.back(),
                     opts.seconds));

  // A rebuild that drifts from the library invalidates only the per-layer
  // section (marked stale); it is not a failed operation of the system.
  r.Check("rebuilt_outputs_bit_exact", outputs_exact, 0);
  r.Check("rebuilt_candidates_bit_exact", candidates_exact, 0);
  r.per_layer_stale = !(outputs_exact && candidates_exact);

  double wall = 0;
  for (double t : traced_s) wall += t;
  auto self = [&](Span span) { return trace.totals(span).self_s; };
  auto share = [&](Span span) { return self(span) / wall; };
  double covered = 0;
  for (std::size_t i = 0; i < trace.name_count(); ++i) {
    if (i != kSequence && i != kAttention) covered += trace.totals(i).self_s;
  }
  const double int8_s = trace.totals(kQkv).total_s +
                        trace.totals(kOutProj).total_s +
                        trace.totals(kFfn1).total_s + trace.totals(kFfn2).total_s;
  const double untraced = Median(untraced_s);

  r.Add("nn.qkv_share", share(kQkv), "frac");
  r.Add("nn.out_proj_share", share(kOutProj), "frac");
  r.Add("nn.ffn1_share", share(kFfn1), "frac");
  r.Add("nn.ffn2_share", share(kFfn2), "frac");
  r.Add("nn.int8_gops", traced.int8_ops / int8_s / 1e9, "GOP/s");
  r.Add("nn.layernorm_share", share(kLayerNorm), "frac");
  r.Add("nn.gelu_share", share(kGelu), "frac");
  r.Add("nn.heads_share", share(kHeads), "frac");
  r.Add("core.atsel_quantize_share", share(kQuantize), "frac");
  r.Add("core.atsel_lut_share", share(kLut), "frac");
  r.Add("core.atsel_topk_share", share(kTopK), "frac");
  r.Add("core.lut_gops", traced.lut_ops / trace.totals(kLut).total_s / 1e9,
        "GOP/s");
  r.Add("core.topk_insert_frac",
        static_cast<double>(traced.topk_inserts) /
            static_cast<double>(traced.topk_pushes),
        "frac");
  r.Add("core.gather_share", share(kGather), "frac");
  r.Add("core.fused_share", share(kFused), "frac");
  r.Add("core.context_share", share(kContext), "frac");
  r.Add("core.attention_share", trace.totals(kAttention).total_s / wall,
        "frac");
  r.Add("runtime.overhead_frac", (untraced - Median(sequential_s)) / untraced,
        "frac");
  r.Add("trace.coverage_frac", covered / wall, "frac");
  r.Add("trace.overhead_frac", Median(traced_s) / untraced - 1, "frac");
  r.Add("trace.bit_exact", r.per_layer_stale ? 0 : 1, "bool");
  r.Add("trace.wall_ms", Median(traced_s) * 1e3, "ms");
  r.Add("workload.gen_ms", s.gen_s * 1e3, "ms");
  r.Samples("rounds", traced_s.size());
  r.Samples("recorded_spans", trace.recorded());
  r.Samples("dropped_spans", trace.dropped());

  const std::string base = opts.trace_dir + "/" + opts.workload;
  r.Check("trace_written", trace.WriteChrome(base + ".trace.json") &&
                               trace.WriteLayers(base + ".layers.json", wall));
  return r;
}

RunResult Untraced(const Options& opts, const Setup& s,
                   const std::vector<double>& setup_s) {
  RunResult r;
  const InferenceConfig inf = SparseInt8();
  BatchRunner runner(1);

  // Before the timed region, so its allocations do not depend on the
  // heap the timed passes leave behind.
  const auto fidelity0 = Clock::now();
  const double fidelity = FidelityCosine(s);
  r.Info("fidelity_s", SecondsSince(fidelity0));

  // Warm-up batch, doubling as the batched-vs-sequential sample check.
  const std::vector<MatrixF> warm =
      s.model.ForwardBatch(s.batches.front(), inf, runner);
  bool same = true;
  for (std::size_t i = 0; i < warm.size(); ++i) {
    same = same && BitEqual(warm[i], s.model.Forward(s.batches.front()[i], inf));
  }
  r.Check("forward_batch_matches_forward", same);

  std::vector<double> pass_s;
  FastestRepeat batch_s;
  CoreSpeed core;
  std::size_t nonfinite = 0;
  const auto start = Clock::now();
  do {
    double pass = 0;
    for (std::size_t b = 0; b < s.batches.size(); ++b) {
      const auto t0 = Clock::now();
      const std::vector<MatrixF> out =
          s.model.ForwardBatch(s.batches[b], inf, runner);
      const double t = SecondsSince(t0);
      batch_s.Record(b, t);
      pass += t;
      for (const MatrixF& y : out) nonfinite += AllFinite(y) ? 0 : 1;
      r.attempted += out.size();
    }
    pass_s.push_back(pass);
    core.Sample();
  } while (KeepGoing(start, pass_s.size(), kMinPasses, pass_s.back(),
                     opts.seconds));
  r.Check("outputs_finite", nonfinite == 0, nonfinite);

  // The accelerator twin's price of batches of 8 drawn from the same
  // sequences: one client, batches back to back, so a batch's latency is
  // its service time.  A pass has only a few batches, so the twin also
  // prices seeded regroupings (the first grouping is the one timed above).
  std::vector<double> latency;
  double busy = 0;
  std::size_t good = 0;
  for (const auto& lengths : TwinBatches(s, opts.seed)) {
    const double t = s.twin(lengths);
    latency.push_back(t);
    busy += t;
    if (t <= kSloS) good += lengths.size();
  }
  std::sort(latency.begin(), latency.end());
  const double host_s = batch_s.Sum() / core.Scale();

  r.Add("setup_s", Median(setup_s), "s");
  r.Add("tokens_per_s", static_cast<double>(s.tokens) / host_s, "tokens/s");
  r.Add("sim_mean_ms", busy / static_cast<double>(latency.size()) * 1e3,
        "ms");
  r.Add("sim_p95_ms", obs::PercentileOfSorted(latency, 0.95) * 1e3, "ms");
  r.Add("goodput_rps", static_cast<double>(good) / busy, "req/s");
  r.Add("served_frac",
        static_cast<double>(r.attempted - nonfinite) /
            static_cast<double>(r.attempted),
        "frac");
  r.Add("accuracy", fidelity, "cosine");
  r.Info("median_pass_tokens_per_s",
         static_cast<double>(s.tokens) / Median(pass_s));
  r.Info("reference_loop_s", core.loop_s());
  r.Samples("passes", pass_s.size());
  r.Samples("sequences_per_pass", s.batches.size() * kBatch);
  r.Samples("tokens_per_pass", s.tokens);
  r.Samples("twin_batches", latency.size());
  r.Info("sim_p99_ms", obs::PercentileOfSorted(latency, 0.99) * 1e3);
  r.Samples("fidelity_sequences", s.fidelity_inputs.size());
  return r;
}

}  // namespace

RunResult RunEncode(const Options& opts) {
  const EncodeWorkload w = Lookup(opts.workload);
  std::vector<double> setup_s;
  const std::unique_ptr<Setup> s = RepeatSetup(
      opts.traced() ? 1 : kSetups, [&] { return Build(w, opts.seed); },
      setup_s);
  RunResult r = opts.traced() ? Traced(opts, *s) : Untraced(opts, *s, setup_s);
  r.Samples("setups", setup_s.size());
  return r;
}

}  // namespace latte::e2e
