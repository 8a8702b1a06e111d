#include "workload/synthetic.hpp"

#include <algorithm>
#include <cmath>

namespace latte {
namespace {

/// Adds +-max|x|/255 uniform perturbation, emulating 8-bit fixed-point
/// storage of the tensor.
void QuantPerturbInPlace(Rng& rng, MatrixF& m) {
  float mx = 0.f;
  for (float x : m.flat()) mx = std::max(mx, std::fabs(x));
  const double amp = 1.0 / 255.0 * mx;
  for (auto& x : m.flat()) {
    x += static_cast<float>(rng.NextUniform(-amp, amp));
  }
}

}  // namespace

AttentionProblem GenerateAttentionProblem(Rng& rng, std::size_t n,
                                          const AttentionWorkloadConfig& cfg) {
  const std::size_t d = cfg.head_dim;
  AttentionProblem p;
  p.k = rng.NormalMatrix(n, d, 0.0, 1.0);
  p.v = rng.NormalMatrix(n, d, 0.0, 1.0);
  p.q = MatrixF(n, d);

  const std::size_t m = std::min<std::size_t>(cfg.dominant_keys, n);
  for (std::size_t i = 0; i < n; ++i) {
    auto qi = p.q.row(i);
    // Isotropic noise component.
    for (auto& x : qi) {
      x = static_cast<float>(rng.NextNormal(0.0, 1.0));
    }
    // Aligned component: geometric mixture of m random key directions.
    double w = cfg.signal;
    for (std::size_t t = 0; t < m; ++t) {
      const std::size_t j = rng.NextIndex(n);
      auto kj = p.k.row(j);
      for (std::size_t c = 0; c < d; ++c) {
        qi[c] += static_cast<float>(w) * kj[c];
      }
      w *= cfg.decay;
    }
  }

  QuantPerturbInPlace(rng, p.q);
  QuantPerturbInPlace(rng, p.k);
  QuantPerturbInPlace(rng, p.v);
  return p;
}

AttentionWorkloadConfig WorkloadForDataset(const DatasetSpec& spec,
                                           std::size_t head_dim) {
  AttentionWorkloadConfig cfg;
  cfg.head_dim = head_dim;
  if (spec.name.rfind("SQuAD", 0) == 0) {
    // QA: long contexts, attention focuses on answer-span tokens.
    cfg.dominant_keys = 10;
    cfg.signal = 1.3;
    cfg.decay = 0.75;
  } else if (spec.name == "RTE") {
    cfg.dominant_keys = 8;
    cfg.signal = 1.15;
    cfg.decay = 0.7;
  } else {  // MRPC and default
    cfg.dominant_keys = 8;
    cfg.signal = 1.2;
    cfg.decay = 0.7;
  }
  return cfg;
}

MatrixF MakeInputEmbedding(Rng& rng, std::size_t n, std::size_t hidden) {
  return rng.NormalMatrix(n, hidden, 0.0, 1.0);
}

}  // namespace latte
