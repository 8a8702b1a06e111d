#pragma once
// Per-worker scratch arena for the batched execution runtime.
//
// Every temporary the inference hot path needs -- At-Sel's codes, strip
// scores and candidate arrays, fused-kernel score buffers, the encoder
// layer's activations, generic float scratch -- lives here and is leased
// out by reference.  Buffers only ever grow (capacity is sticky), so after the
// first few calls at steady-state shapes the hot loop performs zero heap
// allocations.  One Workspace belongs to exactly one worker at a time; the
// BatchRunner owns one per concurrent slot, which is the whole
// thread-safety story (no sharing, no locks).

#include <cstddef>
#include <memory>
#include <vector>

#include "core/sparse_attention.hpp"
#include "tensor/kernels.hpp"
#include "tensor/matrix.hpp"

namespace latte {

/// Reserved Workspace::Float slot assignments for the library hot paths.
/// Callers layering their own temporaries on a Workspace should lease
/// slots >= kFirstFree so they never collide with these while live.
namespace wslots {
/// EncoderForward's activations, live across its per-head attention calls:
/// Q, K, V, the Wo output, the post-LN1 residual and both FFN buffers.
inline constexpr std::size_t kLayerQ = 0, kLayerK = 1, kLayerV = 2;
inline constexpr std::size_t kLayerAttnOut = 3, kLayerResidual = 4;
inline constexpr std::size_t kLayerFfn = 5, kLayerFfnOut = 6;
inline constexpr std::size_t kAttentionScores = 8;
inline constexpr std::size_t kFirstFree = 16;
}  // namespace wslots

/// Arena of reusable scratch buffers for one worker.
class Workspace {
 public:
  Workspace() = default;

  // Non-copyable (leased spans/references must stay unique), movable so a
  // BatchRunner can hold them in a vector.
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;
  Workspace(Workspace&&) = default;
  Workspace& operator=(Workspace&&) = default;

  /// The sparse-attention scratch (At-Sel buffers and candidates, scores,
  /// gather buffers, context row).
  /// Call once per SparseAttention invocation; the returned reference is
  /// valid until the next Reset().
  AttentionScratch& attention() {
    ++leases_;
    return attention_;
  }

  /// The tiled-GEMM packing scratch (tensor/kernels.hpp).  Shared by every
  /// GEMM this worker runs; the pack buffer grows to the largest panel set
  /// and then stops allocating.
  GemmScratch& gemm() {
    ++leases_;
    return gemm_;
  }

  /// Leases a float scratch matrix for `slot`, resized to rows x cols with
  /// its allocation reused.  Slots are small dense integers (0, 1, 2...);
  /// distinct concurrent temporaries must use distinct slots.  Leased
  /// references stay valid until Reset(), even when later calls open new
  /// slots (slots are individually heap-anchored).
  MatrixF& Float(std::size_t slot, std::size_t rows, std::size_t cols) {
    if (slot >= floats_.size()) floats_.resize(slot + 1);
    if (!floats_[slot]) floats_[slot] = std::make_unique<MatrixF>();
    ++leases_;
    floats_[slot]->Resize(rows, cols);
    return *floats_[slot];
  }

  /// Number of buffer leases served (tests assert reuse by checking this
  /// grows while CapacityBytes() stays flat).
  std::size_t leases() const { return leases_; }

  /// Total bytes currently held across all scratch buffers (capacities,
  /// not live sizes — buffers shrink logically but never release).  Flat
  /// across repeated calls == the arena is reusing, not reallocating.
  std::size_t CapacityBytes() const {
    std::size_t bytes = attention_.CapacityBytes() + gemm_.CapacityBytes();
    for (const auto& m : floats_) {
      if (m) bytes += m->capacity() * sizeof(float);
    }
    return bytes;
  }

  /// Releases every buffer (capacity drops to zero).
  void Reset() {
    attention_ = AttentionScratch{};
    gemm_ = GemmScratch{};
    floats_.clear();
    leases_ = 0;
  }

 private:
  AttentionScratch attention_;
  GemmScratch gemm_;
  std::vector<std::unique_ptr<MatrixF>> floats_;
  std::size_t leases_ = 0;
};

}  // namespace latte
