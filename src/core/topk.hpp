#pragma once
// Streaming Top-k selection, modelling the II=1 merge-sort hardware of
// paper reference [29] (Section 4.1: "merge sort hardware for high
// throughput (II=1) scalable Top-k sort").
//
// The hardware consumes one (value, index) pair per clock and maintains the
// k best seen so far in a sorting network.  We model it functionally as an
// insertion structure with deterministic tie-breaking (the earlier index
// wins, matching the stable in-order arrival of a streaming sorter), and
// expose the cycle count the timing model charges for it.

#include <cstdint>
#include <vector>

#include "tensor/matrix.hpp"

namespace latte {

/// One scored candidate.
struct ScoredIndex {
  std::int32_t score = 0;
  std::uint32_t index = 0;
};

/// Streaming Top-k selector over int32 scores.
///
/// Push() one element per "cycle"; Result() returns the Top-k in decreasing
/// score order (ties broken toward the smaller index).  If fewer than k
/// elements were pushed, all of them are returned.
class StreamingTopK {
 public:
  /// Requires k >= 1.
  explicit StreamingTopK(std::size_t k);

  /// Feeds one element.  Returns true if it entered the current Top-k.
  bool Push(std::int32_t score, std::uint32_t index);

  /// Elements pushed so far.
  std::size_t pushed() const { return pushed_; }

  /// Cycles the modeled II=1 sorter spends: one per pushed element.
  std::size_t cycles() const { return pushed_; }

  /// Current Top-k, best first.
  const std::vector<ScoredIndex>& Result() const { return heap_; }

  /// Clears the selector for the next row, keeping k.
  void Reset();

 private:
  std::size_t k_;
  std::size_t pushed_ = 0;
  // Kept sorted: best (highest score, then lowest index) first.
  std::vector<ScoredIndex> heap_;
};

/// Convenience: Top-k indices of one row, decreasing score, ties toward the
/// smaller index.  Returns min(k, row.size()) entries.
std::vector<ScoredIndex> TopK(std::span<const std::int32_t> row,
                              std::size_t k);

}  // namespace latte
