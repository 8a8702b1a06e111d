#include "tensor/lut_multiply.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

#include "tensor/kernels.hpp"

namespace latte {

LutMultiplier::LutMultiplier() {
  for (int a = -8; a <= 7; ++a) {
    for (int b = -8; b <= 7; ++b) {
      table_[static_cast<std::size_t>((a + 8) * 16 + (b + 8))] =
          static_cast<std::int16_t>(a * b);
    }
  }
}

std::int32_t LutMultiplier::Mul(std::int8_t a, std::int8_t b) const {
  assert(a >= -8 && a <= 7 && b >= -8 && b <= 7);
  return table_[static_cast<std::size_t>((a + 8) * 16 + (b + 8))];
}

std::int32_t LutMultiplier::Dot(std::span<const std::int8_t> a,
                                std::span<const std::int8_t> b) const {
  assert(a.size() == b.size());
  std::int32_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += Mul(a[i], b[i]);
  return acc;
}

MatrixI32 LutMultiplier::ScoreMatrix(const QuantizedMatrix& q,
                                     const QuantizedMatrix& k) const {
  for (const QuantizedMatrix* m : {&q, &k}) {
    if (m->bits != 1 && m->bits != 4) {
      throw std::invalid_argument(
          "LutMultiplier::ScoreMatrix: codes must be 1- or 4-bit to index "
          "the product table, got " +
          std::to_string(m->bits) + "-bit");
    }
  }
  const std::size_t d = q.codes.cols();
  if (k.codes.cols() != d) {
    throw std::invalid_argument(
        "LutMultiplier::ScoreMatrix: head dim mismatch (q has " +
        std::to_string(d) + " columns, k has " +
        std::to_string(k.codes.cols()) + ")");
  }
  // Every product of table-range codes is an exact integer, so the packed
  // int8 GEMM on K^T yields each pair's Dot() bit for bit.
  MatrixI8 kt(d, k.codes.rows());
  for (std::size_t j = 0; j < k.codes.rows(); ++j) {
    auto kj = k.codes.row(j);
    for (std::size_t c = 0; c < d; ++c) kt(c, j) = kj[c];
  }
  MatrixI32 s;
  Int8GemmInto(q.codes, kt, s);
  return s;
}

}  // namespace latte
