#include "core/atsel_unit.hpp"

#include <stdexcept>

namespace latte {

AtSelUnit::AtSelUnit(SelectorConfig cfg, std::size_t lut_lanes)
    : cfg_(cfg), lut_lanes_(lut_lanes) {
  if (lut_lanes == 0) {
    throw std::invalid_argument("AtSelUnit: lut_lanes must be >= 1");
  }
}

SelectionResult AtSelUnit::Run(const MatrixF& q, const MatrixF& k,
                               AtSelUnitStats* stats) const {
  // Bits Selector (quantize Q and K streams), then the LUT datapath: one
  // (row_q, row_k) dot per cycle group across lanes.
  const ApproxScores approx = ScoreApproximate(q, k, cfg_);

  // Systolic sorter per query row; padding keys are gated at its FIFO.
  SelectionResult res;
  res.lut_multiplies = q.rows() * k.rows() * q.cols();
  res.candidates.reserve(q.rows());
  res.approx_scores.reserve(q.rows());

  AtSelUnitStats local;
  local.quantize_cycles = q.size() + k.size();  // one element per cycle
  // Each dot product needs ceil(d / lanes) cycles; dots stream back to
  // back for all n_q * n_k pairs.
  const std::size_t per_dot = (q.cols() + lut_lanes_ - 1) / lut_lanes_;
  local.score_cycles = per_dot * q.rows() * k.rows();

  SystolicTopKSorter sorter(cfg_.top_k);
  for (std::size_t i = 0; i < approx.scores.rows(); ++i) {
    sorter.Reset();
    auto row = approx.scores.row(i);
    for (std::size_t j = 0; j < approx.valid; ++j) {
      sorter.Clock(row[j], static_cast<std::uint32_t>(j));
    }
    local.sort_cycles += sorter.cycles() + sorter.drain_latency();
    local.compare_exchanges += sorter.compare_exchanges();
    res.sorter_cycles += sorter.cycles();

    std::vector<std::uint32_t> idx;
    std::vector<std::int32_t> val;
    for (const auto& si : sorter.Drain()) {
      idx.push_back(si.index);
      val.push_back(si.score);
    }
    res.candidates.push_back(std::move(idx));
    res.approx_scores.push_back(std::move(val));
  }
  if (stats != nullptr) *stats = local;
  return res;
}

}  // namespace latte
