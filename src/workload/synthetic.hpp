#pragma once
// Synthetic workload generation: attention problems and request
// embeddings.
//
// Substitute for pretrained-BERT activations (see DESIGN.md section 2): we
// generate Q/K/V tensors whose attention-score distribution reproduces the
// property Fig 6 actually measures -- BERT-family attention concentrates
// most softmax mass on a small set of dominant keys per query.  Each query
// is constructed as a noisy combination of a few randomly chosen key
// directions with geometrically decaying weights; `signal` controls how
// peaked the resulting softmax is and `dominant_keys` how many keys matter.
// Those draws go through Rng::NormalMatrix (libm).  Request embeddings
// come from MakeInputEmbedding, a float Box-Muller without libm on the
// elementwise bodies, whose bits depend on the seed alone.

#include "tensor/kernels.hpp"
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

/// An n x hidden block of N(0, 1) samples: the input embedding of every
/// synthesized request (serve/engine) and of the encoder-level tests.
/// Box-Muller in float, without libm, on the elementwise body `isa` (by
/// default the one this host dispatches); every body gives the same bits,
/// so the block depends on the seed alone.  The stream, in row-major
/// order: each block of 32 outputs draws 16 rng.NextU64() words, a tail
/// block too.  Word j of block b gives u1 = ((w >> 40) + 1) 2^-24 and
/// u2 = ((w >> 8) & 0xFFFFFF) 2^-24; with r = sqrt(-2 ln u1) and
/// theta = 2 pi u2, output 32b + j is r cos theta and 32b + 16 + j is
/// r sin theta.  Every output is finite, |z| <= sqrt(48 ln 2) ~ 5.77, and
/// u1 = 1 gives +-0.  ln, sin and cos are polynomials (a few float ulps
/// of libm's); sqrt is IEEE.  Throws std::invalid_argument for an `isa`
/// this host cannot run.  Rng::NormalMatrix, the double-precision libm
/// generator, still draws the attention problems above.
MatrixF MakeInputEmbedding(Rng& rng, std::size_t n, std::size_t hidden,
                           ElementwiseIsa isa = DispatchedElementwiseIsa());

}  // namespace latte
