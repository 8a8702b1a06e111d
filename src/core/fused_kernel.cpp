#include "core/fused_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "tensor/kernels.hpp"

namespace latte {

namespace {

// The candidates' rows, by position: either a gathered (|cand| x d)
// block or the rows `idx` of the full matrix, read in place.  Both feed
// one kernel body, so the two overloads cannot drift apart.
struct GatheredRows {
  const MatrixF& m;
  std::size_t size() const { return m.rows(); }
  std::span<const float> operator[](std::size_t j) const { return m.row(j); }
};

struct IndexedRows {
  const MatrixF& m;
  std::span<const std::uint32_t> idx;
  IndexedRows(const MatrixF& src, std::span<const std::uint32_t> rows,
              const char* caller)
      : m(src), idx(rows) {
    for (const std::uint32_t j : idx) {
      if (j >= m.rows()) {
        throw std::out_of_range(std::string(caller) +
                                ": candidate index past the matrix");
      }
    }
  }
  std::size_t size() const { return idx.size(); }
  std::span<const float> operator[](std::size_t j) const {
    return m.row(idx[j]);
  }
};

template <typename Rows>
void FusedScores(std::span<const float> q_row, const Rows& ks,
                 std::size_t cols, const FusedKernelConfig& cfg,
                 FusedScoreResult& out) {
  if (ks.size() > 0 && cols != q_row.size()) {
    throw std::invalid_argument("FusedScoreKernel: dim mismatch");
  }
  if (cfg.unroll == 0) {
    throw std::invalid_argument("FusedScoreKernel: unroll must be >= 1");
  }

  out.exp_scores.resize(ks.size());
  out.sum = 0.0;
  const std::size_t d = q_row.size();
  if (d == 0) {
    // The fused tail never runs (it fires on the last reduction iteration,
    // and there are none): every candidate gets zero weight, exactly what
    // a freshly value-initialized result holds.  Explicit so a reused
    // scratch `out` cannot leak scores from a previous call.
    std::fill(out.exp_scores.begin(), out.exp_scores.end(), 0.f);
  } else {
    // Fig 4 fuses the reduction with the scale/exp tail in one II=1
    // loop; functionally that is "dot product, then tail, per candidate".
    // The software reduction runs through the kernel library's unrolled
    // partial sums (same trip count as the hardware loop, reordered
    // accumulation -- compare scores with relative tolerance), four
    // candidates at a time (the same floats as one at a time).
    const std::size_t count = ks.size();
    std::size_t j = 0;
    for (; j + 4 <= count; j += 4) {
      const auto dots =
          DotProducts(q_row, {ks[j], ks[j + 1], ks[j + 2], ks[j + 3]});
      std::copy(dots.begin(), dots.end(), out.exp_scores.begin() + j);
    }
    for (; j < count; ++j) out.exp_scores[j] = DotProduct(q_row, ks[j]);
    for (j = 0; j < count; ++j) {
      // Saturating exponent: the hardware exp LUT clamps its input.
      const float e =
          std::exp(std::clamp(out.exp_scores[j] * cfg.scale, -80.f, 80.f));
      out.exp_scores[j] = e;
      out.sum += e;
    }
  }

  // Cycle model: the inner reduction is unrolled by p, II=1, so one
  // candidate costs ceil(d/p) cycles; candidates stream back to back.
  const std::size_t per_cand = (d + cfg.unroll - 1) / cfg.unroll;
  out.cycles = per_cand * ks.size();
}

template <typename Rows>
void Context(const FusedScoreResult& scores, const Rows& vs, std::size_t cols,
             std::span<float> out) {
  if (scores.exp_scores.size() != vs.size()) {
    throw std::invalid_argument("WeightedContext: candidate count mismatch");
  }
  if (out.size() != cols) {
    throw std::invalid_argument("WeightedContext: output length mismatch");
  }
  std::fill(out.begin(), out.end(), 0.f);
  // Zero-weight candidates are skipped (a non-finite value times zero
  // would not add nothing); the others are added in candidate order, four
  // per sweep over `out`, so every element takes the same sums in the
  // same order as one candidate at a time.
  float* const z = out.data();
  std::size_t live[4] = {};
  std::size_t held = 0;
  for (std::size_t j = 0; j < vs.size(); ++j) {
    if (scores.exp_scores[j] == 0.f) continue;
    live[held++] = j;
    if (held < 4) continue;
    held = 0;
    const float w0 = scores.exp_scores[live[0]];
    const float w1 = scores.exp_scores[live[1]];
    const float w2 = scores.exp_scores[live[2]];
    const float w3 = scores.exp_scores[live[3]];
    const float* v0 = vs[live[0]].data();
    const float* v1 = vs[live[1]].data();
    const float* v2 = vs[live[2]].data();
    const float* v3 = vs[live[3]].data();
    for (std::size_t c = 0; c < cols; ++c) {
      z[c] = (((z[c] + w0 * v0[c]) + w1 * v1[c]) + w2 * v2[c]) + w3 * v3[c];
    }
  }
  for (std::size_t r = 0; r < held; ++r) {
    const float w = scores.exp_scores[live[r]];
    const float* v = vs[live[r]].data();
    for (std::size_t c = 0; c < cols; ++c) z[c] += w * v[c];
  }
  if (scores.sum > 0.0) {
    const float inv = static_cast<float>(1.0 / scores.sum);
    for (auto& x : out) x *= inv;
  }
}

}  // namespace

FusedScoreResult FusedScoreKernel(std::span<const float> q_row,
                                  const MatrixF& ks,
                                  const FusedKernelConfig& cfg) {
  FusedScoreResult res;
  FusedScoreKernel(q_row, ks, cfg, res);
  return res;
}

void FusedScoreKernel(std::span<const float> q_row, const MatrixF& ks,
                      const FusedKernelConfig& cfg, FusedScoreResult& out) {
  FusedScores(q_row, GatheredRows{ks}, ks.cols(), cfg, out);
}

void FusedScoreKernel(std::span<const float> q_row, const MatrixF& k,
                      std::span<const std::uint32_t> idx,
                      const FusedKernelConfig& cfg, FusedScoreResult& out) {
  FusedScores(q_row, IndexedRows(k, idx, "FusedScoreKernel"), k.cols(), cfg,
              out);
}

std::vector<float> WeightedContext(const FusedScoreResult& scores,
                                   const MatrixF& vs) {
  std::vector<float> z(vs.cols(), 0.f);
  WeightedContext(scores, vs, std::span<float>(z));
  return z;
}

void WeightedContext(const FusedScoreResult& scores, const MatrixF& vs,
                     std::span<float> out) {
  Context(scores, GatheredRows{vs}, vs.cols(), out);
}

void WeightedContext(const FusedScoreResult& scores, const MatrixF& v,
                     std::span<const std::uint32_t> idx,
                     std::span<float> out) {
  Context(scores, IndexedRows(v, idx, "WeightedContext"), v.cols(), out);
}

}  // namespace latte
