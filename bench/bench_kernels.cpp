// Kernel-level GFLOP/s benchmarks: the tiled/packed GEMM library versus
// the seed's scalar triple loop, across the paper's encoder shapes
// (BERT-base: hidden 768, FFN 3072, head_dim 64; MRPC/SQuAD sequence
// lengths).  Single thread, deterministic inputs.  Emits machine-readable
// JSON (BENCH_kernels.json, or argv[1]) for the CI perf-regression gate;
// the dimensionless speedups are what the gate compares against
// bench/baselines/, since absolute GFLOP/s move with the host.  The int8
// cells time Int8GemmInto (which packs W per call) and the product on
// weights packed once (PackedInt8Weights, the layout QuantizedLinear runs)
// against the 4-row int32 loop they replaced on the projection and FFN
// shapes, time both for every micro-kernel variant this host supports
// (Int8GemmIsas) as info, and fail the run on any bit mismatch between a
// variant and the loop; an info field times packing one BERT-base
// layer's int8 weights, the load-time cost.  The At-Sel cells time
// SelectCandidates (strips of int8 GEMM scores, each row selected by
// counting while the strip is in cache) against the hardware-model path
// it replaced (per-pair LUT Dot, StreamingTopK) at MRPC/SQuAD head shapes
// and n = 1024, record the share of SparseAttention the select takes, and
// fail the run unless candidates, scores and sorter cycles match exactly.
// The GELU cell times GeluInPlace against the per-element std::tanh
// formula it replaced on one FFN1 activation (53 x 3072) and records its
// max abs error against a double-precision GELU (the gate holds it to
// 1e-6).  It and the quantize cell (QuantizeInto at 8 bits on FFN2's input
// at MRPC and SQuAD lengths, 53 and 175 x 3072) also time every
// elementwise body this host runs (ElementwiseIsas) as info, and fail the
// run unless each gives the portable body's bits.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "obs/json_writer.hpp"
#include "latte/latte.hpp"

namespace latte {
namespace {

using Clock = std::chrono::steady_clock;

volatile float g_sink = 0;  // keeps results alive past the optimizer

// The seed's scalar A*B^T loop (dot-product orientation, serial
// accumulation), kept here as the baseline MatMulBT shed when it moved
// onto the tiled kernel.
MatrixF ScalarMatMulBT(const MatrixF& a, const MatrixF& b) {
  MatrixF c(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    auto ai = a.row(i);
    for (std::size_t j = 0; j < b.rows(); ++j) {
      auto bj = b.row(j);
      float acc = 0.f;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += ai[k] * bj[k];
      c(i, j) = acc;
    }
  }
  return c;
}

// The library's int8 GEMM before the packed K-pair kernel: four output
// rows per sweep of W with int32 multiplies, kept here as the baseline the
// packed kernel is timed and bit-checked against.
void ScalarInt8Gemm(const MatrixI8& x, const MatrixI8& w, MatrixI32& out) {
  const std::size_t n = x.rows();
  const std::size_t k = x.cols();
  const std::size_t m = w.cols();
  out.Resize(n, m);
  std::fill(out.flat().begin(), out.flat().end(), 0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    auto x0 = x.row(i), x1 = x.row(i + 1), x2 = x.row(i + 2),
         x3 = x.row(i + 3);
    auto o0 = out.row(i), o1 = out.row(i + 1), o2 = out.row(i + 2),
         o3 = out.row(i + 3);
    for (std::size_t p = 0; p < k; ++p) {
      const std::int32_t a0 = x0[p], a1 = x1[p], a2 = x2[p], a3 = x3[p];
      auto wp = w.row(p);
      for (std::size_t j = 0; j < m; ++j) {
        const std::int32_t wj = wp[j];
        o0[j] += a0 * wj;
        o1[j] += a1 * wj;
        o2[j] += a2 * wj;
        o3[j] += a3 * wj;
      }
    }
  }
  for (; i < n; ++i) {
    auto xi = x.row(i);
    auto oi = out.row(i);
    for (std::size_t p = 0; p < k; ++p) {
      const std::int32_t a = xi[p];
      auto wp = w.row(p);
      for (std::size_t j = 0; j < m; ++j) oi[j] += a * wp[j];
    }
  }
}

struct ShapeResult {
  std::string op;     // "matmul" or "matmul_bt"
  std::string label;  // which encoder op this shape is
  std::size_t m = 0, k = 0, n = 0;
  double scalar_gflops = 0;
  double tiled_gflops = 0;
  double speedup = 0;
};

// Times `fn` (which must consume its result into g_sink) until at least
// `min_s` seconds and 3 repetitions have elapsed; returns seconds/call.
template <typename Fn>
double TimePerCall(Fn&& fn, double min_s = 0.25) {
  fn();  // warm-up: page in, grow scratch to steady state
  int reps = 0;
  const auto t0 = Clock::now();
  double elapsed = 0;
  do {
    fn();
    ++reps;
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  } while (elapsed < min_s || reps < 3);
  return elapsed / reps;
}

ShapeResult BenchGemm(const std::string& label, std::size_t m, std::size_t k,
                      std::size_t n, Rng& rng) {
  const auto a = rng.NormalMatrix(m, k, 0.0, 1.0);
  const auto b = rng.NormalMatrix(k, n, 0.0, 1.0);
  const double flop = 2.0 * m * k * n;

  // Scalar baseline: the seed's i-k-j loop (MatMulSkipZeros is that exact
  // loop; on dense random inputs the zero test never fires).
  const double scalar_s =
      TimePerCall([&] { g_sink = g_sink + MatMulSkipZeros(a, b)(0, 0); });

  GemmScratch scratch;
  MatrixF c;
  const double tiled_s = TimePerCall([&] {
    MatMulInto(a, b, c, scratch);
    g_sink = g_sink + c(0, 0);
  });

  ShapeResult r;
  r.op = "matmul";
  r.label = label;
  r.m = m;
  r.k = k;
  r.n = n;
  r.scalar_gflops = flop / scalar_s * 1e-9;
  r.tiled_gflops = flop / tiled_s * 1e-9;
  r.speedup = scalar_s / tiled_s;
  return r;
}

ShapeResult BenchGemmBT(const std::string& label, std::size_t m,
                        std::size_t rows_b, std::size_t d, Rng& rng) {
  const auto a = rng.NormalMatrix(m, d, 0.0, 1.0);
  const auto b = rng.NormalMatrix(rows_b, d, 0.0, 1.0);
  const double flop = 2.0 * m * d * rows_b;

  const double scalar_s =
      TimePerCall([&] { g_sink = g_sink + ScalarMatMulBT(a, b)(0, 0); });

  GemmScratch scratch;
  MatrixF c;
  const double tiled_s = TimePerCall([&] {
    MatMulBTInto(a, b, c, scratch);
    g_sink = g_sink + c(0, 0);
  });

  ShapeResult r;
  r.op = "matmul_bt";
  r.label = label;
  r.m = m;
  r.k = d;
  r.n = rows_b;
  r.scalar_gflops = flop / scalar_s * 1e-9;
  r.tiled_gflops = flop / tiled_s * 1e-9;
  r.speedup = scalar_s / tiled_s;
  return r;
}

// One int8 micro-kernel variant: forced through Int8GemmIntoIsa, and on
// weights packed once for it.
struct Int8IsaResult {
  std::string isa;
  double gops = 0;
  bool bit_exact = false;
  double prepacked_gops = 0;
  bool prepacked_bit_exact = false;
};

struct Int8Result {
  std::string label;
  std::size_t m = 0, k = 0, n = 0;
  double scalar_gops = 0;
  double packed_gops = 0;  // the dispatched variant, via Int8GemmInto
  double speedup = 0;
  double prepacked_gops = 0;  // the dispatched variant, weights packed once
  bool bit_exact = false;  // every variant, the dispatched one included
  std::vector<Int8IsaResult> isas;
};

MatrixI8 RandomCodes(std::size_t rows, std::size_t cols, Rng& rng) {
  MatrixI8 q(rows, cols);
  for (auto& v : q.flat()) {
    v = static_cast<std::int8_t>(static_cast<int>(rng.NextIndex(256)) - 128);
  }
  return q;
}

Int8Result BenchInt8(const std::string& label, std::size_t m, std::size_t k,
                     std::size_t n, Rng& rng) {
  const MatrixI8 x = RandomCodes(m, k, rng);
  const MatrixI8 w = RandomCodes(k, n, rng);
  const double ops = 2.0 * m * k * n;

  MatrixI32 ref, out;
  GemmScratch scratch;
  auto time_once = [](auto&& fn) {
    const auto t0 = Clock::now();
    fn();
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  auto scalar = [&] {
    ScalarInt8Gemm(x, w, ref);
    g_sink = g_sink + static_cast<float>(ref(0, 0));
  };
  auto packed = [&] {
    Int8GemmInto(x, w, out, scratch);
    g_sink = g_sink + static_cast<float>(out(0, 0));
  };
  const PackedInt8Weights wp(w);
  MatrixI32 pre_out;
  auto prepacked = [&] {
    Int8GemmInto(x, wp, pre_out, scratch);
    g_sink = g_sink + static_cast<float>(pre_out(0, 0));
  };
  // Interleaved best-of rounds: all sides of the gated ratio sample the
  // same stretch of host contention, and the minimum drops the rounds
  // another process stalled (a shared host moved mean-timed ratios by 50%).
  scalar();
  packed();
  prepacked();
  double scalar_s = std::numeric_limits<double>::infinity();
  double packed_s = scalar_s;
  double prepacked_s = scalar_s;
  for (int round = 0; round < 15; ++round) {
    scalar_s = std::min(scalar_s, time_once(scalar));
    packed_s = std::min(packed_s, time_once(packed));
    prepacked_s = std::min(prepacked_s, time_once(prepacked));
  }

  Int8Result r;
  r.label = label;
  r.m = m;
  r.k = k;
  r.n = n;
  r.scalar_gops = ops / scalar_s * 1e-9;
  r.packed_gops = ops / packed_s * 1e-9;
  r.speedup = scalar_s / packed_s;
  r.prepacked_gops = ops / prepacked_s * 1e-9;
  r.bit_exact = out == ref && pre_out == ref;

  // Every variant this host supports, per call and pre-packed, best of a
  // few interleaved rounds each: info only, but each must match the scalar
  // loop bit for bit.
  for (const char* isa : Int8GemmIsas()) {
    const PackedInt8Weights wv(isa, w);
    auto forced = [&] {
      Int8GemmIntoIsa(isa, x, w, out, scratch);
      g_sink = g_sink + static_cast<float>(out(0, 0));
    };
    auto forced_pre = [&] {
      Int8GemmInto(x, wv, pre_out, scratch);
      g_sink = g_sink + static_cast<float>(pre_out(0, 0));
    };
    forced();
    forced_pre();
    double forced_s = std::numeric_limits<double>::infinity();
    double forced_pre_s = forced_s;
    for (int round = 0; round < 5; ++round) {
      forced_s = std::min(forced_s, time_once(forced));
      forced_pre_s = std::min(forced_pre_s, time_once(forced_pre));
    }
    r.isas.push_back({isa, ops / forced_s * 1e-9, out == ref,
                      ops / forced_pre_s * 1e-9, pre_out == ref});
    r.bit_exact = r.bit_exact && r.isas.back().bit_exact &&
                  r.isas.back().prepacked_bit_exact;
  }
  return r;
}

// Load-time cost: packing one BERT-base layer's int8 weights (Q, K, V,
// output projection, FFN1, FFN2; 7.08M codes) for the dispatched variant,
// fresh buffers included, best of a few rounds, in milliseconds.
double BenchPackLayer(Rng& rng) {
  const MatrixI8 proj = RandomCodes(768, 768, rng);
  const MatrixI8 ffn1 = RandomCodes(768, 3072, rng);
  const MatrixI8 ffn2 = RandomCodes(3072, 768, rng);
  double best_s = std::numeric_limits<double>::infinity();
  for (int round = 0; round < 10; ++round) {
    const auto t0 = Clock::now();
    std::vector<PackedInt8Weights> layer;
    for (int i = 0; i < 4; ++i) layer.emplace_back(proj);
    layer.emplace_back(ffn1);
    layer.emplace_back(ffn2);
    best_s = std::min(
        best_s, std::chrono::duration<double>(Clock::now() - t0).count());
    g_sink = g_sink + static_cast<float>(layer.back().bytes());
  }
  return best_s * 1e3;
}

struct AtSelResult {
  std::string label;
  std::size_t n = 0, d = 0, top_k = 0;
  int bits = 0;
  double reference_us = 0;
  double select_us = 0;
  double speedup = 0;
  bool bit_exact = false;
  /// SparseAttention on the same head (d_v = d), and the share of it that
  /// the streamed select into its scratch takes.
  double attention_us = 0;
  double select_share = 0;
};

// SelectCandidates as the hardware model computes it: quantize, one LUT
// Dot per (query, key) pair, and the streaming sorter fed key by key.
SelectionResult ReferenceSelect(const MatrixF& q, const MatrixF& k,
                                const SelectorConfig& cfg) {
  const QuantizedMatrix qq = Quantize(q, cfg.bits);
  const QuantizedMatrix qk = Quantize(k, cfg.bits);
  static const LutMultiplier lut;
  SelectionResult res;
  res.lut_multiplies = q.rows() * k.rows() * q.cols();
  StreamingTopK sorter(cfg.top_k);
  for (std::size_t i = 0; i < q.rows(); ++i) {
    sorter.Reset();
    for (std::size_t j = 0; j < k.rows(); ++j) {
      sorter.Push(lut.Dot(qq.codes.row(i), qk.codes.row(j)),
                  static_cast<std::uint32_t>(j));
    }
    res.sorter_cycles += sorter.cycles();
    res.candidates.emplace_back();
    res.approx_scores.emplace_back();
    for (const ScoredIndex& si : sorter.Result()) {
      res.candidates.back().push_back(si.index);
      res.approx_scores.back().push_back(si.score);
    }
  }
  return res;
}

AtSelResult BenchAtSel(std::size_t n, std::size_t d, std::size_t top_k,
                       int bits, Rng& rng) {
  const auto q = rng.NormalMatrix(n, d, 0.0, 1.0);
  const auto k = rng.NormalMatrix(n, d, 0.0, 1.0);
  const auto v = rng.NormalMatrix(n, d, 0.0, 1.0);
  SelectorConfig cfg;
  cfg.top_k = top_k;
  cfg.bits = bits;
  SparseAttentionConfig sa;
  sa.top_k = top_k;
  sa.bits = bits;
  AttentionScratch scratch;

  SelectionResult ref, got;
  auto time_once = [](auto&& fn) {
    const auto t0 = Clock::now();
    fn();
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  auto reference = [&] { ref = ReferenceSelect(q, k, cfg); };
  auto select = [&] { got = SelectCandidates(q, k, cfg); };
  // The select SparseAttention runs, into its reused scratch, and the
  // whole operator on that scratch.
  auto streamed = [&] { SelectCandidates(q, k, cfg, scratch.select); };
  auto attention = [&] {
    const MatrixF out = SparseAttention(q, k, v, sa, nullptr, scratch);
    g_sink = g_sink + out(0, 0);
  };
  // Interleaved best-of rounds, as for the int8 cells.
  reference();
  select();
  attention();
  double reference_s = std::numeric_limits<double>::infinity();
  double select_s = reference_s, streamed_s = reference_s;
  double attention_s = reference_s;
  for (int round = 0; round < 15; ++round) {
    reference_s = std::min(reference_s, time_once(reference));
    select_s = std::min(select_s, time_once(select));
    streamed_s = std::min(streamed_s, time_once(streamed));
    attention_s = std::min(attention_s, time_once(attention));
  }

  AtSelResult r;
  r.label = "atsel_seq" + std::to_string(n) + "_b" + std::to_string(bits);
  r.n = n;
  r.d = d;
  r.top_k = top_k;
  r.bits = bits;
  r.reference_us = reference_s * 1e6;
  r.select_us = select_s * 1e6;
  r.speedup = reference_s / select_s;
  r.attention_us = attention_s * 1e6;
  r.select_share = streamed_s / attention_s;
  r.bit_exact = got.candidates == ref.candidates &&
                got.approx_scores == ref.approx_scores &&
                got.sorter_cycles == ref.sorter_cycles &&
                got.lut_multiplies == ref.lut_multiplies;
  return r;
}

// The library's GELU before it moved onto the vector unit: one std::tanh
// per element, kept here as the reference GeluInPlace is timed against.
float TanhGelu(float x) {
  constexpr float kC = 0.7978845608028654f;  // sqrt(2/pi)
  const float inner = kC * (x + 0.044715f * x * x * x);
  return 0.5f * x * (1.f + std::tanh(inner));
}

// BERT's tanh-form GELU in double precision, the accuracy reference.
double GeluDouble(double x) {
  const double c = std::sqrt(2.0 / std::acos(-1.0));
  return 0.5 * x * (1.0 + std::tanh(c * (x + 0.044715 * x * x * x)));
}

bool SameBits(const MatrixF& a, const MatrixF& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.flat().data(), b.flat().data(),
                     a.size() * sizeof(float)) == 0;
}

// One elementwise body's time on a cell, and whether its output has the
// portable body's bits.
struct BodyResult {
  std::string isa;
  double us = 0;
  bool bit_exact = false;
};

struct GeluResult {
  std::size_t rows = 0, cols = 0;
  double reference_us = 0;
  double vector_us = 0;
  double speedup = 0;
  double max_abs_err = 0;  // vs GeluDouble, timed matrix + [-12, 12] sweep
  std::vector<BodyResult> isas;
};

// Best of 16 timed runs of `run`, each after an untimed `reset`.
template <typename Reset, typename Run>
double BestSeconds(Reset&& reset, Run&& run) {
  double best = std::numeric_limits<double>::infinity();
  for (int round = 0; round < 16; ++round) {
    reset();
    const auto t0 = Clock::now();
    run();
    best = std::min(best,
                    std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return best;
}

GeluResult BenchGelu(std::size_t rows, std::size_t cols, Rng& rng) {
  const MatrixF x = rng.NormalMatrix(rows, cols, 0.0, 1.0);
  MatrixF ref = x, out = x;
  auto time_once = [](auto&& fn) {
    const auto t0 = Clock::now();
    fn();
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  auto reference = [&] {
    for (float& v : ref.flat()) v = TanhGelu(v);
    g_sink = g_sink + ref(0, 0);
  };
  auto vector = [&] {
    GeluInPlace(out);
    g_sink = g_sink + out(0, 0);
  };
  // Interleaved best-of rounds, as for the int8 cells; each round starts
  // from the same inputs (the copies are not timed).
  double reference_s = std::numeric_limits<double>::infinity();
  double vector_s = reference_s;
  for (int round = 0; round < 16; ++round) {
    ref = x;
    reference_s = std::min(reference_s, time_once(reference));
    out = x;
    vector_s = std::min(vector_s, time_once(vector));
  }

  GeluResult r;
  r.rows = rows;
  r.cols = cols;
  r.reference_us = reference_s * 1e6;
  r.vector_us = vector_s * 1e6;
  r.speedup = reference_s / vector_s;
  auto record_error = [&](const MatrixF& in, const MatrixF& got) {
    for (std::size_t i = 0; i < in.size(); ++i) {
      const double err = std::fabs(got.flat()[i] - GeluDouble(in.flat()[i]));
      r.max_abs_err = std::max(r.max_abs_err, err);
    }
  };
  record_error(x, out);
  MatrixF sweep(1, 24001);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    sweep.flat()[i] = static_cast<float>(static_cast<int>(i) - 12000) * 1e-3f;
  }
  const MatrixF sweep_x = sweep;
  GeluInPlace(sweep);
  record_error(sweep_x, sweep);

  MatrixF portable = x;
  GeluInPlace(portable, ElementwiseIsa::kPortable);
  for (const ElementwiseIsa isa : ElementwiseIsas()) {
    MatrixF y;
    auto reset = [&] { y = x; };
    auto run = [&] {
      GeluInPlace(y, isa);
      g_sink = g_sink + y(0, 0);
    };
    const double s = BestSeconds(reset, run);
    r.isas.push_back({ElementwiseIsaName(isa), s * 1e6, SameBits(y, portable)});
  }
  return r;
}

// QuantizeInto at 8 bits on a rows x cols activation (FFN2's input), per
// elementwise body.
struct QuantizeResult {
  std::string label;
  std::size_t rows = 0, cols = 0;
  std::vector<BodyResult> isas;
};

QuantizeResult BenchQuantize(const std::string& label, std::size_t rows,
                             std::size_t cols, Rng& rng) {
  const MatrixF x = rng.NormalMatrix(rows, cols, 0.0, 1.0);
  MatrixI8 portable;
  const float portable_scale =
      QuantizeInto(x, 8, portable, ElementwiseIsa::kPortable);
  QuantizeResult r{label, rows, cols, {}};
  for (const ElementwiseIsa isa : ElementwiseIsas()) {
    MatrixI8 codes;
    float scale = 0;
    auto run = [&] {
      scale = QuantizeInto(x, 8, codes, isa);
      g_sink = g_sink + scale;
    };
    const double s = BestSeconds([] {}, run);
    r.isas.push_back({ElementwiseIsaName(isa), s * 1e6,
                      codes == portable && scale == portable_scale});
  }
  return r;
}

void WriteBodies(obs::JsonWriter& json, const char* key,
                 const std::vector<BodyResult>& isas) {
  json.Key(key);
  json.BeginArray();
  for (const auto& b : isas) {
    json.BeginObject();
    json.Key("isa").Value(b.isa);
    json.Key("us").Value(b.us);
    json.Key("bit_exact").Value(b.bit_exact);
    json.EndObject();
  }
  json.EndArray();
}

}  // namespace
}  // namespace latte

int main(int argc, char** argv) {
  using namespace latte;
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_kernels.json";
  Rng rng(2022);

  // The encoder's GEMM population for BERT-base shapes: QKV/output
  // projections at MRPC- and SQuAD-like sequence lengths, both FFN
  // matmuls, and the per-head score matmul Q K^T.
  std::vector<ShapeResult> results;
  results.push_back(BenchGemm("qkv_proj_seq64", 64, 768, 768, rng));
  results.push_back(BenchGemm("qkv_proj_seq128", 128, 768, 768, rng));
  results.push_back(BenchGemm("ffn1_seq128", 128, 768, 3072, rng));
  results.push_back(BenchGemm("ffn2_seq128", 128, 3072, 768, rng));
  results.push_back(BenchGemmBT("scores_seq128_d64", 128, 128, 64, rng));
  results.push_back(BenchGemmBT("scores_seq384_d64", 384, 384, 64, rng));

  std::printf("== kernel GFLOP/s, arch=%s, single thread ==\n",
              KernelArchName());
  double min_speedup = 0, log_sum = 0;
  for (const auto& r : results) {
    std::printf("  %-18s %4zux%4zux%4zu  scalar %7.2f  tiled %7.2f  %5.2fx\n",
                r.label.c_str(), r.m, r.k, r.n, r.scalar_gflops,
                r.tiled_gflops, r.speedup);
    min_speedup =
        min_speedup == 0 ? r.speedup : std::min(min_speedup, r.speedup);
    log_sum += std::log(r.speedup);
  }
  const double geomean = std::exp(log_sum / results.size());
  std::printf("  min speedup %.2fx, geomean %.2fx\n", min_speedup, geomean);

  // The int8 projections and FFN of the functional datapath (QuantizedLinear).
  std::vector<Int8Result> int8;
  int8.push_back(BenchInt8("qkv_proj_seq64", 64, 768, 768, rng));
  int8.push_back(BenchInt8("ffn1_seq128", 128, 768, 3072, rng));
  int8.push_back(BenchInt8("ffn2_seq128", 128, 3072, 768, rng));
  std::printf("\n== int8 GEMM GOP/s (%s), packed per call and pre-packed "
              "vs 4-row loop ==\n",
              KernelArchName());
  double int8_min_speedup = 0;
  bool int8_exact = true;
  for (const auto& r : int8) {
    std::printf(
        "  %-18s %4zux%4zux%4zu  scalar %7.2f  packed %7.2f  %5.2fx  "
        "pre-packed %7.2f%s\n",
        r.label.c_str(), r.m, r.k, r.n, r.scalar_gops, r.packed_gops,
        r.speedup, r.prepacked_gops, r.bit_exact ? "" : "  BIT MISMATCH");
    for (const auto& v : r.isas) {
      std::printf("  %18s  %-10s  per call %7.2f%s  pre-packed %7.2f%s\n", "",
                  v.isa.c_str(), v.gops, v.bit_exact ? "" : " MISMATCH",
                  v.prepacked_gops, v.prepacked_bit_exact ? "" : " MISMATCH");
    }
    int8_min_speedup = int8_min_speedup == 0
                           ? r.speedup
                           : std::min(int8_min_speedup, r.speedup);
    int8_exact = int8_exact && r.bit_exact;
  }
  std::printf("  int8 min speedup %.2fx\n", int8_min_speedup);
  const double pack_layer_ms = BenchPackLayer(rng);
  std::printf("  pack one BERT-base layer's int8 weights: %.2f ms\n",
              pack_layer_ms);
  if (!int8_exact) {
    std::fprintf(stderr, "bench_kernels: an int8 GEMM variant differs from "
                         "the scalar reference\n");
    return 1;
  }

  // At-Sel candidate pre-selection for one BERT-base head (d = 64, the
  // paper's k = 30) at MRPC- and SQuAD-like lengths and at n = 1024, 1- and
  // 4-bit codes.
  std::vector<AtSelResult> atsel;
  for (const std::size_t n : {128, 384, 1024}) {
    for (const int bits : {1, 4}) {
      atsel.push_back(BenchAtSel(n, 64, 30, bits, rng));
    }
  }
  std::printf("\n== At-Sel us/head, SelectCandidates vs LUT Dot + "
              "StreamingTopK ==\n");
  double atsel_min_speedup = 0;
  bool atsel_exact = true;
  for (const auto& r : atsel) {
    std::printf("  %-18s %4zux%3zu k=%zu  reference %9.1f  select %8.1f  "
                "%5.2fx  attention %8.1f  select share %.2f%s\n",
                r.label.c_str(), r.n, r.d, r.top_k, r.reference_us,
                r.select_us, r.speedup, r.attention_us, r.select_share,
                r.bit_exact ? "" : "  BIT MISMATCH");
    atsel_min_speedup = atsel_min_speedup == 0
                            ? r.speedup
                            : std::min(atsel_min_speedup, r.speedup);
    atsel_exact = atsel_exact && r.bit_exact;
  }
  std::printf("  At-Sel min speedup %.2fx\n", atsel_min_speedup);
  if (!atsel_exact) {
    std::fprintf(stderr, "bench_kernels: SelectCandidates differs from the "
                         "LUT + streaming-sorter reference\n");
    return 1;
  }

  // GELU on the FFN1 output of one MRPC-length sequence (53 x 3072).
  const GeluResult gelu = BenchGelu(53, 3072, rng);
  const char* elementwise = ElementwiseIsaName(DispatchedElementwiseIsa());
  std::printf("\n== GELU us, GeluInPlace (x / (1 + exp(-2u)), %s body) vs "
              "std::tanh ==\n",
              elementwise);
  std::printf("  %4zux%4zu  reference %8.1f  vector %7.1f  %5.2fx  "
              "max abs err %.2g\n",
              gelu.rows, gelu.cols, gelu.reference_us, gelu.vector_us,
              gelu.speedup, gelu.max_abs_err);
  bool elementwise_exact = true;
  for (const auto& b : gelu.isas) {
    std::printf("  %9s  %-10s  %7.1f us%s\n", "", b.isa.c_str(), b.us,
                b.bit_exact ? "" : "  BIT MISMATCH");
    elementwise_exact = elementwise_exact && b.bit_exact;
  }

  // Quantizing FFN2's input at MRPC and SQuAD lengths, per body.
  std::vector<QuantizeResult> quantize;
  quantize.push_back(BenchQuantize("ffn2_in_seq53", 53, 3072, rng));
  quantize.push_back(BenchQuantize("ffn2_in_seq175", 175, 3072, rng));
  std::printf("\n== quantize us, QuantizeInto 8-bit, per elementwise body "
              "(%s runs) ==\n",
              elementwise);
  for (const auto& r : quantize) {
    for (const auto& b : r.isas) {
      std::printf("  %-18s %4zux%4zu  %-10s  %7.1f us%s\n", r.label.c_str(),
                  r.rows, r.cols, b.isa.c_str(), b.us,
                  b.bit_exact ? "" : "  BIT MISMATCH");
      elementwise_exact = elementwise_exact && b.bit_exact;
    }
  }
  if (!elementwise_exact) {
    std::fprintf(stderr, "bench_kernels: an elementwise body differs from "
                         "the portable one\n");
    return 1;
  }

  obs::JsonWriter json;
  json.BeginObject();
  json.Key("bench").Value("kernels");
  json.Key("schema_version").Value(std::size_t{1});
  StampHost(json);
  json.Key("arch").Value(KernelArchName());
  json.Key("elementwise_arch").Value(elementwise);
  json.Key("single_thread").Value(true);
  json.Key("shapes");
  json.BeginArray();
  for (const auto& r : results) {
    json.BeginObject();
    json.Key("op").Value(r.op);
    json.Key("label").Value(r.label);
    json.Key("m").Value(r.m);
    json.Key("k").Value(r.k);
    json.Key("n").Value(r.n);
    json.Key("scalar_gflops").Value(r.scalar_gflops);
    json.Key("tiled_gflops").Value(r.tiled_gflops);
    json.Key("speedup").Value(r.speedup);
    json.EndObject();
  }
  json.EndArray();
  json.Key("min_speedup").Value(min_speedup);
  json.Key("geomean_speedup").Value(geomean);
  json.Key("int8_shapes");
  json.BeginArray();
  for (const auto& r : int8) {
    json.BeginObject();
    json.Key("label").Value(r.label);
    json.Key("m").Value(r.m);
    json.Key("k").Value(r.k);
    json.Key("n").Value(r.n);
    json.Key("scalar_gops").Value(r.scalar_gops);
    json.Key("packed_gops").Value(r.packed_gops);
    json.Key("speedup").Value(r.speedup);
    json.Key("prepacked_gops").Value(r.prepacked_gops);
    json.Key("isas");
    json.BeginArray();
    for (const auto& v : r.isas) {
      json.BeginObject();
      json.Key("isa").Value(v.isa);
      json.Key("gops").Value(v.gops);
      json.Key("bit_exact").Value(v.bit_exact);
      json.Key("prepacked_gops").Value(v.prepacked_gops);
      json.Key("prepacked_bit_exact").Value(v.prepacked_bit_exact);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.Key("int8_min_speedup").Value(int8_min_speedup);
  json.Key("int8_pack_layer_ms").Value(pack_layer_ms);
  json.Key("atsel_shapes");
  json.BeginArray();
  for (const auto& r : atsel) {
    json.BeginObject();
    json.Key("label").Value(r.label);
    json.Key("n").Value(r.n);
    json.Key("d").Value(r.d);
    json.Key("top_k").Value(r.top_k);
    json.Key("bits").Value(static_cast<std::size_t>(r.bits));
    json.Key("reference_us").Value(r.reference_us);
    json.Key("select_us").Value(r.select_us);
    json.Key("speedup").Value(r.speedup);
    json.Key("bit_exact").Value(r.bit_exact);
    json.Key("attention_us").Value(r.attention_us);
    json.Key("select_share").Value(r.select_share);
    json.EndObject();
  }
  json.EndArray();
  json.Key("atsel_min_speedup").Value(atsel_min_speedup);
  json.Key("gelu_speedup").Value(gelu.speedup);
  json.Key("gelu_max_abs_err").Value(gelu.max_abs_err);
  WriteBodies(json, "gelu_isas", gelu.isas);
  json.Key("quantize_shapes");
  json.BeginArray();
  for (const auto& r : quantize) {
    json.BeginObject();
    json.Key("label").Value(r.label);
    json.Key("rows").Value(r.rows);
    json.Key("cols").Value(r.cols);
    WriteBodies(json, "isas", r.isas);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  if (!json.WriteFile(out_path)) return 1;
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
