#pragma once
// Synthetic attention workload generation.
//
// Substitute for pretrained-BERT activations (see DESIGN.md section 2): we
// generate Q/K/V tensors whose attention-score distribution reproduces the
// property Fig 6 actually measures -- BERT-family attention concentrates
// most softmax mass on a small set of dominant keys per query.  Each query
// is constructed as a noisy combination of a few randomly chosen key
// directions with geometrically decaying weights; `signal` controls how
// peaked the resulting softmax is and `dominant_keys` how many keys matter.

#include "tensor/matrix.hpp"
#include "tensor/rng.hpp"
#include "workload/dataset.hpp"

namespace latte {

/// Knobs of the synthetic attention generator.  Every query also carries
/// unit-variance isotropic noise, and Q, K and V are perturbed by 1/255
/// of their largest magnitude after generation, emulating 8-bit
/// fixed-point model quantization (Section 5.1: "models are quantized
/// into 8 bits ... without accuracy drop").
struct AttentionWorkloadConfig {
  std::size_t head_dim = 64;
  std::size_t dominant_keys = 8;  ///< strongly attended keys per query
  double signal = 1.2;            ///< alignment strength with dominant keys
  double decay = 0.7;             ///< geometric weight decay across dominants
};

/// One single-head attention problem instance.
struct AttentionProblem {
  MatrixF q;  ///< (n x d)
  MatrixF k;  ///< (n x d)
  MatrixF v;  ///< (n x d)
};

/// Generates an n-token attention problem with the given concentration.
AttentionProblem GenerateAttentionProblem(Rng& rng, std::size_t n,
                                          const AttentionWorkloadConfig& cfg);

/// Concentration parameters used for each evaluation dataset.  QA-style
/// long-context tasks (SQuAD) attend a few answer-span tokens strongly;
/// sentence-pair tasks (RTE, MRPC) spread attention slightly wider.
AttentionWorkloadConfig WorkloadForDataset(const DatasetSpec& spec,
                                           std::size_t head_dim = 64);

/// I.i.d. N(0, 1) embedding block (n x hidden) for encoder-level tests.
MatrixF MakeInputEmbedding(Rng& rng, std::size_t n, std::size_t hidden);

}  // namespace latte
