#include "core/fused_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/kernels.hpp"

namespace latte {

FusedScoreResult FusedScoreKernel(std::span<const float> q_row,
                                  const MatrixF& ks,
                                  const FusedKernelConfig& cfg) {
  FusedScoreResult res;
  FusedScoreKernel(q_row, ks, cfg, res);
  return res;
}

void FusedScoreKernel(std::span<const float> q_row, const MatrixF& ks,
                      const FusedKernelConfig& cfg, FusedScoreResult& out) {
  if (ks.rows() > 0 && ks.cols() != q_row.size()) {
    throw std::invalid_argument("FusedScoreKernel: dim mismatch");
  }
  if (!cfg.masked.empty() && cfg.masked.size() != ks.rows()) {
    throw std::invalid_argument("FusedScoreKernel: mask length mismatch");
  }
  if (cfg.unroll == 0) {
    throw std::invalid_argument("FusedScoreKernel: unroll must be >= 1");
  }

  out.exp_scores.resize(ks.rows());
  out.sum = 0.0;
  const std::size_t d = q_row.size();
  if (d == 0) {
    // The fused tail never runs (it fires on the last reduction iteration,
    // and there are none): every candidate gets zero weight, exactly what
    // a freshly value-initialized result holds.  Explicit so a reused
    // scratch `out` cannot leak scores from a previous call.
    std::fill(out.exp_scores.begin(), out.exp_scores.end(), 0.f);
  } else {
    // Fig 4 fuses the reduction with the scale/mask/exp tail in one II=1
    // loop; functionally that is "dot product, then tail, per candidate".
    // The software reduction runs through the kernel library's unrolled
    // partial sums (same trip count as the hardware loop, reordered
    // accumulation -- compare scores with relative tolerance).
    for (std::size_t j = 0; j < ks.rows(); ++j) {
      const float acc = DotProduct(q_row, ks.row(j)) * cfg.scale;
      if (!cfg.masked.empty() && cfg.masked[j]) {
        // Masked candidates contribute exactly zero weight (the hardware
        // gates the exp LUT output rather than feeding it -inf).
        out.exp_scores[j] = 0.f;
      } else {
        // Saturating exponent: the hardware exp LUT clamps its input.
        const float e = std::exp(std::clamp(acc, -80.f, 80.f));
        out.exp_scores[j] = e;
        out.sum += e;
      }
    }
  }

  // Cycle model: the inner reduction is unrolled by p, II=1, so one
  // candidate costs ceil(d/p) cycles; candidates stream back to back.
  const std::size_t per_cand = (d + cfg.unroll - 1) / cfg.unroll;
  out.cycles = per_cand * ks.rows();
}

std::vector<float> WeightedContext(const FusedScoreResult& scores,
                                   const MatrixF& vs) {
  std::vector<float> z(vs.cols(), 0.f);
  WeightedContext(scores, vs, std::span<float>(z));
  return z;
}

void WeightedContext(const FusedScoreResult& scores, const MatrixF& vs,
                     std::span<float> out) {
  if (scores.exp_scores.size() != vs.rows()) {
    throw std::invalid_argument("WeightedContext: candidate count mismatch");
  }
  if (out.size() != vs.cols()) {
    throw std::invalid_argument("WeightedContext: output length mismatch");
  }
  std::fill(out.begin(), out.end(), 0.f);
  for (std::size_t j = 0; j < vs.rows(); ++j) {
    const float w = scores.exp_scores[j];
    if (w == 0.f) continue;
    auto vj = vs.row(j);
    for (std::size_t c = 0; c < vs.cols(); ++c) out[c] += w * vj[c];
  }
  if (scores.sum > 0.0) {
    const float inv = static_cast<float>(1.0 / scores.sum);
    for (auto& x : out) x *= inv;
  }
}

}  // namespace latte
