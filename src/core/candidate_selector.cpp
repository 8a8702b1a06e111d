#include "core/candidate_selector.hpp"

#include <algorithm>
#include <stdexcept>

#include "tensor/matmul.hpp"

namespace latte {

ApproxScores ScoreApproximate(const MatrixF& q, const MatrixF& k,
                              const SelectorConfig& cfg) {
  if (q.cols() != k.cols()) {
    throw std::invalid_argument("At-Sel: head dim mismatch");
  }
  if (cfg.top_k == 0) {
    throw std::invalid_argument("At-Sel: top_k must be >= 1");
  }
  if (cfg.bits != 1 && cfg.bits != 4) {
    throw std::invalid_argument("At-Sel: bits must be 1 or 4");
  }

  // Step 2 of Fig 3: ultra-low-bit quantization with per-tensor scaling.
  const QuantizedMatrix qq = Quantize(q, cfg.bits);
  const QuantizedMatrix qk = Quantize(k, cfg.bits);

  // Step 3: approximate scores via LUT multiplication only.
  static const LutMultiplier lut;  // immutable table, shared
  ApproxScores out;
  out.scores = lut.ScoreMatrix(qq, qk);

  // Padding keys (index >= valid_len) never enter the sorter -- the
  // hardware gates them at the FIFO (Fig 1(b) masking, applied before
  // selection).
  out.valid = cfg.valid_len == 0
                  ? k.rows()
                  : std::min<std::size_t>(cfg.valid_len, k.rows());
  return out;
}

SelectionResult SelectCandidates(const MatrixF& q, const MatrixF& k,
                                 const SelectorConfig& cfg) {
  const ApproxScores approx = ScoreApproximate(q, k, cfg);

  SelectionResult res;
  res.lut_multiplies = q.rows() * k.rows() * q.cols();
  res.candidates.reserve(q.rows());
  res.approx_scores.reserve(q.rows());

  // Step 4: streaming Top-k per query row over the valid keys.
  StreamingTopK sorter(cfg.top_k);
  for (std::size_t i = 0; i < approx.scores.rows(); ++i) {
    sorter.Reset();
    auto row = approx.scores.row(i);
    for (std::size_t j = 0; j < approx.valid; ++j) {
      sorter.Push(row[j], static_cast<std::uint32_t>(j));
    }
    res.sorter_cycles += sorter.cycles();
    std::vector<std::uint32_t> idx;
    std::vector<std::int32_t> val;
    idx.reserve(sorter.Result().size());
    val.reserve(sorter.Result().size());
    for (const auto& si : sorter.Result()) {
      idx.push_back(si.index);
      val.push_back(si.score);
    }
    res.candidates.push_back(std::move(idx));
    res.approx_scores.push_back(std::move(val));
  }
  return res;
}

std::vector<std::vector<std::uint32_t>> ExactTopKCandidates(
    const MatrixF& q, const MatrixF& k, std::size_t top_k) {
  if (q.cols() != k.cols()) {
    throw std::invalid_argument("ExactTopKCandidates: head dim mismatch");
  }
  const MatrixF s = MatMulBT(q, k);
  std::vector<std::vector<std::uint32_t>> out;
  out.reserve(s.rows());
  for (std::size_t i = 0; i < s.rows(); ++i) {
    auto row = s.row(i);
    std::vector<std::uint32_t> order(row.size());
    for (std::size_t j = 0; j < row.size(); ++j) {
      order[j] = static_cast<std::uint32_t>(j);
    }
    const std::size_t kk = std::min<std::size_t>(top_k, row.size());
    std::partial_sort(order.begin(), order.begin() + kk, order.end(),
                      [&](std::uint32_t a, std::uint32_t b) {
                        if (row[a] != row[b]) return row[a] > row[b];
                        return a < b;
                      });
    order.resize(kk);
    out.push_back(std::move(order));
  }
  return out;
}

}  // namespace latte
