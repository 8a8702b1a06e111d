#pragma once
// Look-up-table integer multiplication (Section 3.2 / Stage 1 "At-Sel").
//
// On the FPGA the quantized Q'.K'^T pre-selection scores are produced without
// DSPs: two 4-bit codes index a 256-entry product table held in LUTs.  Mul
// and Dot model that structure, so the resource model can charge LUTs
// instead of DSPs for Stage 1's pre-selection arithmetic and tests can check
// the table against integer multiply-accumulate.  The functional twin
// computes the same integers on the CPU's exact int8 GEMM: every score
// equals the per-pair Dot bit for bit.  At-Sel itself
// (core/candidate_selector) streams strips of query rows against K's codes
// packed once and never forms the whole matrix; ScoreMatrix does, for tests
// and for the end-to-end bench's call-by-call rebuild.

#include <array>
#include <cstdint>

#include "tensor/matrix.hpp"
#include "tensor/quantize.hpp"

namespace latte {

/// 256-entry product LUT for signed codes in [-8, 7] x [-8, 7].
/// Codes from 1-bit and 4-bit quantization (range [-7,7] / {-1,1}) always fall
/// inside the table.
class LutMultiplier {
 public:
  LutMultiplier();

  /// Product of two 4-bit signed codes via table lookup.
  /// Precondition: a, b in [-8, 7].
  std::int32_t Mul(std::int8_t a, std::int8_t b) const;

  /// Dot product of two code vectors via repeated lookup.
  /// Precondition: equal lengths.
  std::int32_t Dot(std::span<const std::int8_t> a,
                   std::span<const std::int8_t> b) const;

  /// Approximate score matrix S' = Q' * K'^T; entry (i, j) equals
  /// Dot(q row i, k row j).  q.codes is (n x d), k.codes is (m x d); the
  /// result is (n x m).  Runs on the exact int8 GEMM (tensor/kernels), not
  /// the table.  Throws std::invalid_argument when either operand is not
  /// 1- or 4-bit (wider codes fall outside the table's range) or when the
  /// column counts differ.
  MatrixI32 ScoreMatrix(const QuantizedMatrix& q,
                        const QuantizedMatrix& k) const;

  /// Number of table entries (fixed at 256, the figure the paper quotes).
  static constexpr int kEntries = 256;

 private:
  // table_[(a+8)*16 + (b+8)] == a*b
  std::array<std::int16_t, kEntries> table_;
};

}  // namespace latte
