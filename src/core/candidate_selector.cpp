#include "core/candidate_selector.hpp"

#include <algorithm>
#include <stdexcept>

#include "tensor/matmul.hpp"

namespace latte {

SelectionResult SelectCandidates(const MatrixF& q, const MatrixF& k,
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

  // Step 3: approximate scores, the integers the product LUT would form.
  static const LutMultiplier lut;  // immutable table, shared
  const MatrixI32 scores = lut.ScoreMatrix(qq, qk);

  // Padding keys (index >= valid_len) never enter the sorter -- the
  // hardware gates them at the FIFO (Fig 1(b) masking, applied before
  // selection).
  const std::size_t valid =
      cfg.valid_len == 0 ? k.rows()
                         : std::min<std::size_t>(cfg.valid_len, k.rows());

  SelectionResult res;
  res.lut_multiplies = q.rows() * k.rows() * q.cols();
  res.candidates.reserve(q.rows());
  res.approx_scores.reserve(q.rows());

  // Step 4: per query row, the Top-k over the valid keys, in the streaming
  // sorter's order (score descending, ties toward the smaller index) and at
  // its cost (one cycle per streamed key).  The functional twin picks them
  // by counting: bin b holds the keys scoring hi - b, an exclusive prefix
  // sum over the bins gives each bin's first output slot, and one pass in
  // key order fills the slots, so equal scores keep index order.  The codes
  // bound every score's magnitude by MaxCode^2 * d, so a row spans at most
  // 2 * MaxCode^2 * d + 1 bins.
  const std::int64_t max_code = MaxCode(cfg.bits);
  const auto max_range = static_cast<std::size_t>(
      2 * max_code * max_code * static_cast<std::int64_t>(q.cols()));
  std::vector<std::uint32_t> bins;  // reused across rows
  for (std::size_t i = 0; i < scores.rows(); ++i) {
    const auto row = scores.row(i).first(valid);
    res.sorter_cycles += row.size();
    const std::size_t kk = std::min(cfg.top_k, row.size());
    std::vector<std::uint32_t> idx(kk);
    std::vector<std::int32_t> val(kk);
    if (kk > 0) {
      const auto [min_it, max_it] = std::minmax_element(row.begin(), row.end());
      const std::int32_t hi = *max_it;
      const auto range =
          static_cast<std::size_t>(static_cast<std::int64_t>(hi) - *min_it);
      if (range > max_range) {
        throw std::logic_error(
            "At-Sel: approximate scores span more than the quantized codes "
            "allow");
      }
      bins.assign(range + 1, 0);
      for (const std::int32_t s : row) ++bins[hi - s];
      // Exclusive prefix sum up to the bin that holds the k-th key.
      std::size_t cut = 0;
      for (std::uint32_t seen = 0;; ++cut) {
        const std::uint32_t count = bins[cut];
        bins[cut] = seen;
        seen += count;
        if (seen >= kk) break;
      }
      for (std::size_t j = 0; j < row.size(); ++j) {
        const std::size_t b = static_cast<std::size_t>(hi - row[j]);
        if (b <= cut && bins[b] < kk) {
          idx[bins[b]] = static_cast<std::uint32_t>(j);
          val[bins[b]++] = row[j];
        }
      }
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
