#pragma once
// The fused attention score kernel of Fig 4 (Stage 2.2).
//
// The FPGA fuses the exact score dot-product, the 1/sqrt(d) scaling and
// the exponentiation into a single II=1 loop: the reduction runs for
// Ks.dim2 iterations and the scale/exp "tail" executes on the last
// iteration only, so the fused loop has the same trip count as the plain
// dot-product loop.  Fig 1(b)'s padding mask never reaches this loop:
// padded keys are excluded at candidate selection (`valid_len`), so every
// candidate here is a real key.  `unroll` mirrors the HLS UNROLL factor p;
// it only affects the reported cycle estimate, never the values.

#include <cstdint>
#include <limits>

#include "tensor/matrix.hpp"

namespace latte {

/// Output of the fused kernel for one query row.
struct FusedScoreResult {
  std::vector<float> exp_scores;  ///< e^{q.k_j / sqrt(d)} per candidate
  double sum = 0.0;               ///< running sum of exp_scores
  std::size_t cycles = 0;         ///< modeled II=1 cycles: ceil(d/p) * |cand|
};

/// Parameters of the fused loop.
struct FusedKernelConfig {
  float scale = 1.0f;   ///< typically 1/sqrt(d)
  unsigned unroll = 8;  ///< HLS UNROLL factor p (cycle model only)
};

/// Runs the fused loop for one query row against gathered candidates.
/// `q_row` has length d; `ks` is (|candidates| x d) of gathered key rows.
/// Exponent arguments are clamped to +-80 to keep exp() finite, mirroring
/// the saturating fixed-point exponent LUT of the hardware.
FusedScoreResult FusedScoreKernel(std::span<const float> q_row,
                                  const MatrixF& ks,
                                  const FusedKernelConfig& cfg);

/// Workspace variant: writes the result into `out`, reusing the capacity of
/// `out.exp_scores` instead of allocating.  Bit-identical to the
/// value-returning overload; the batch runtime calls this with a per-worker
/// scratch FusedScoreResult so the hot loop stays allocation-free.
void FusedScoreKernel(std::span<const float> q_row, const MatrixF& ks,
                      const FusedKernelConfig& cfg, FusedScoreResult& out);

/// Indexed variant: the candidates are the rows `idx` of `k`, read in
/// place instead of gathered (Stage 2.1 reads the Top-k index list
/// directly).  The same kernel body as the gathered overloads, so the
/// result is bit-identical to gathering those rows first.  Throws
/// std::out_of_range for an index past k.rows(), and as above.
void FusedScoreKernel(std::span<const float> q_row, const MatrixF& k,
                      std::span<const std::uint32_t> idx,
                      const FusedKernelConfig& cfg, FusedScoreResult& out);

/// Stage 2.3: Z_i = (sum_j exp_scores[j] * V_j) / sum (Fig 2(a)).
/// `vs` is (|candidates| x d_v); returns the context row of length d_v.
std::vector<float> WeightedContext(const FusedScoreResult& scores,
                                   const MatrixF& vs);

/// Workspace variant: accumulates the context row into `out`, which must
/// have length vs.cols().  `out` is fully overwritten (zeroed first), so it
/// can be a reused scratch span.  Bit-identical to the value-returning
/// overload.
void WeightedContext(const FusedScoreResult& scores, const MatrixF& vs,
                     std::span<float> out);

/// Indexed variant: the candidates' values are the rows `idx` of `v`,
/// read in place.  Bit-identical to gathering them first.
void WeightedContext(const FusedScoreResult& scores, const MatrixF& v,
                     std::span<const std::uint32_t> idx, std::span<float> out);

}  // namespace latte
