#include "adapt/escalate.hpp"

#include <algorithm>

#include "core/candidate_selector.hpp"
#include "nn/encoder.hpp"
#include "tensor/kernels.hpp"

namespace latte {

EscalationProbe ProbeSelectorMargin(const MatrixF& x,
                                    const ModelInstance& model,
                                    std::size_t top_k, int bits,
                                    std::size_t max_rows) {
  EscalationProbe probe;
  const std::size_t n = x.rows();
  if (n == 0 || top_k == 0) return probe;
  const std::size_t head_dim = model.config().encoder.head_dim();
  const EncoderWeights& w0 = model.layer(0);

  // Head-0 slices of the layer-0 projections: K over every key row (the
  // candidate pool is the full sequence), Q over the leading sample only.
  GemmScratch scratch;
  MatrixF k;
  w0.wk.ForwardColumnsInto(x, 0, head_dim, scratch, k);
  const std::size_t rows = std::min(n, max_rows);
  MatrixF q;
  if (rows == n) {
    w0.wq.ForwardColumnsInto(x, 0, head_dim, scratch, q);
  } else {
    MatrixF x_sub(rows, x.cols());
    for (std::size_t r = 0; r < rows; ++r) {
      std::copy(x.row(r).begin(), x.row(r).end(), x_sub.row(r).begin());
    }
    w0.wq.ForwardColumnsInto(x_sub, 0, head_dim, scratch, q);
  }

  // One extra candidate past the cut so the boundary gap is observable.
  // The scratch is local: the probe keeps no buffers between requests.
  SelectorConfig sel;
  sel.top_k = std::min(top_k + 1, n);
  sel.bits = bits;
  SelectScratch result;
  SelectCandidates(q, k, sel, result);

  double margin_sum = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    const std::span<const std::int32_t> s = result.score_row(r);
    if (s.size() <= top_k) {
      // Nothing was cut off (k >= n): the sparse pass is exact.
      margin_sum += 1.0;
      continue;
    }
    const double kept = static_cast<double>(s[top_k - 1]);
    const double dropped = static_cast<double>(s[top_k]);
    const double span = std::max(1.0, static_cast<double>(s[0]) - dropped);
    margin_sum += (kept - dropped) / span;
  }
  probe.mean_margin = margin_sum / static_cast<double>(rows);
  probe.rows = rows;
  return probe;
}

}  // namespace latte
