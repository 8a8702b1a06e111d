#pragma once
// Dense (reference) scaled-dot-product attention and the per-head attention
// signature the encoder is parameterized on.

#include <functional>

#include "tensor/matrix.hpp"

namespace latte {

// Forward declaration (runtime/workspace.hpp): including it here would
// close an include cycle through core/sparse_attention.hpp, which needs
// this header for AttentionFn.
class Workspace;

/// Per-head attention function: (Q, K, V) -> context, all (n x d_head),
/// with its scratch drawn from the caller's Workspace.  The encoder is
/// parameterized on this so the dense reference and the paper's sparse
/// operator are drop-in interchangeable.
using AttentionFn = std::function<MatrixF(const MatrixF&, const MatrixF&,
                                          const MatrixF&, Workspace&)>;

/// Reference dense attention for one head:
///   softmax(Q K^T / sqrt(d)) V
/// Q, K, V are (n x d); result is (n x d).  The (n x n) score matrix is
/// leased from `ws` (slot wslots::kAttentionScores) and both matmuls pack
/// into ws.gemm(), so repeated calls at steady-state shapes allocate only
/// the returned context.  Shaped like AttentionFn.
MatrixF DenseAttention(const MatrixF& q, const MatrixF& k, const MatrixF& v,
                       Workspace& ws);

/// Dense attention with a padding mask: keys at index >= valid_len receive
/// -inf scores before softmax (0 = everything valid, bit-identical to
/// DenseAttention).  The oracle for the masked sparse path.
MatrixF DenseAttentionMasked(const MatrixF& q, const MatrixF& k,
                             const MatrixF& v, std::size_t valid_len,
                             Workspace& ws);

/// Splits an (n x h) matrix into `heads` contiguous column blocks of width
/// h/heads.  Throws if h is not divisible by heads.
std::vector<MatrixF> SplitHeads(const MatrixF& x, std::size_t heads);

/// Inverse of SplitHeads: concatenates per-head (n x d) blocks column-wise.
MatrixF ConcatHeads(const std::vector<MatrixF>& heads);

}  // namespace latte
