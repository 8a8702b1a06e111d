#include "metrics/fidelity.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <unordered_set>

#include "nn/attention.hpp"
#include "nn/ops.hpp"
#include "runtime/workspace.hpp"
#include "tensor/matmul.hpp"

namespace latte {

double RetainedSoftmaxMass(const MatrixF& q, const MatrixF& k,
                           std::span<const std::uint32_t> candidates,
                           std::size_t per_row) {
  if (candidates.size() != q.rows() * per_row) {
    throw std::invalid_argument(
        "RetainedSoftmaxMass: candidate count is not rows x per_row");
  }
  if (q.rows() == 0) return 1.0;
  MatrixF s = MatMulBT(q, k);
  ScaleInPlace(s, 1.f / std::sqrt(static_cast<float>(q.cols())));
  SoftmaxRowsInPlace(s);
  double total = 0.0;
  for (std::size_t i = 0; i < s.rows(); ++i) {
    double mass = 0.0;
    for (std::uint32_t j : candidates.subspan(i * per_row, per_row)) {
      mass += s(i, j);
    }
    total += mass;
  }
  return total / static_cast<double>(s.rows());
}

FidelityReport EvaluateFidelity(const AttentionProblem& problem,
                                const SparseAttentionConfig& cfg) {
  FidelityReport rep;
  rep.n = problem.q.rows();
  rep.k_used = std::min<std::size_t>(cfg.top_k, problem.k.rows());

  SparseAttentionStats stats;
  const MatrixF sparse =
      SparseAttention(problem.q, problem.k, problem.v, cfg, &stats);
  MatrixF dense;
  {
    // Released before the (n x n) oracle passes below allocate.
    Workspace ws;
    dense = DenseAttention(problem.q, problem.k, problem.v, ws);
  }

  // Recall against the exact Top-k oracle.
  const auto exact =
      ExactTopKCandidates(problem.q, problem.k, cfg.top_k);
  double recall = 0.0;
  for (std::size_t i = 0; i < exact.size(); ++i) {
    const auto cand = stats.candidate_row(i);
    std::unordered_set<std::uint32_t> sel(cand.begin(), cand.end());
    std::size_t hit = 0;
    for (std::uint32_t j : exact[i]) hit += sel.count(j);
    recall += exact[i].empty()
                  ? 1.0
                  : static_cast<double>(hit) /
                        static_cast<double>(exact[i].size());
  }
  rep.topk_recall =
      exact.empty() ? 1.0 : recall / static_cast<double>(exact.size());

  rep.retained_mass =
      RetainedSoftmaxMass(problem.q, problem.k, stats.candidates,
                          stats.selected_per_row);
  rep.output_cosine = MeanRowCosine(sparse, dense);

  const double dense_norm = FrobeniusDistance(dense, MatrixF(dense.rows(),
                                                             dense.cols()));
  const double err = FrobeniusDistance(sparse, dense);
  rep.output_rel_error = dense_norm > 0 ? err / dense_norm : 0.0;
  return rep;
}

TierAccuracyTable BuildTopKAccuracyTable(const TierAccuracyTableConfig& cfg,
                                         std::vector<std::size_t> top_ks) {
  std::sort(top_ks.begin(), top_ks.end());
  top_ks.erase(std::unique(top_ks.begin(), top_ks.end()), top_ks.end());
  TierAccuracyTable table;
  table.top_ks = std::move(top_ks);
  table.accuracies.reserve(table.top_ks.size());
  constexpr std::size_t kLengths[] = {224, 288, 352, 384};
  constexpr std::size_t kSamplesPerLength = 3;
  constexpr std::uint64_t kSeed = 42;
  for (const std::size_t k : table.top_ks) {
    // One Rng per top_k, reseeded identically: every row of the table
    // scores the same problem population, so accuracies are monotone in
    // top_k up to fidelity-model noise.
    Rng rng(kSeed);
    double sum = 0;
    std::size_t count = 0;
    for (const std::size_t n : kLengths) {
      for (std::size_t s = 0; s < kSamplesPerLength; ++s) {
        const AttentionProblem problem =
            GenerateAttentionProblem(rng, n, cfg.workload);
        SparseAttentionConfig sparse;
        sparse.top_k = k;
        sum += EvaluateFidelity(problem, sparse).output_cosine;
        ++count;
      }
    }
    table.accuracies.push_back(sum / static_cast<double>(count));
  }
  return table;
}

double AccuracyForTopK(const TierAccuracyTable& table, std::size_t top_k) {
  if (table.top_ks.empty() ||
      table.top_ks.size() != table.accuracies.size()) {
    throw std::invalid_argument(
        "AccuracyForTopK: table must be non-empty with matching top_ks and "
        "accuracies");
  }
  const auto it =
      std::lower_bound(table.top_ks.begin(), table.top_ks.end(), top_k);
  if (it == table.top_ks.begin()) return table.accuracies.front();
  if (it == table.top_ks.end()) return table.accuracies.back();
  const std::size_t hi = static_cast<std::size_t>(it - table.top_ks.begin());
  if (table.top_ks[hi] == top_k) return table.accuracies[hi];
  const std::size_t lo = hi - 1;
  const double t = static_cast<double>(top_k - table.top_ks[lo]) /
                   static_cast<double>(table.top_ks[hi] - table.top_ks[lo]);
  return table.accuracies[lo] +
         t * (table.accuracies[hi] - table.accuracies[lo]);
}

}  // namespace latte
