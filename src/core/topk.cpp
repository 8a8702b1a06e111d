#include "core/topk.hpp"

#include <algorithm>
#include <stdexcept>

namespace latte {
namespace {

// Ordering of the sorter network: higher score first; on equal scores the
// earlier (smaller) index first, matching stable streaming arrival.
bool Better(const ScoredIndex& a, const ScoredIndex& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.index < b.index;
}

}  // namespace

StreamingTopK::StreamingTopK(std::size_t k) : k_(k) {
  if (k == 0) throw std::invalid_argument("StreamingTopK: k must be >= 1");
  heap_.reserve(k);
}

bool StreamingTopK::Push(std::int32_t score, std::uint32_t index) {
  ++pushed_;
  const ScoredIndex cand{score, index};
  if (heap_.size() < k_) {
    auto pos = std::upper_bound(heap_.begin(), heap_.end(), cand, Better);
    heap_.insert(pos, cand);
    return true;
  }
  if (!Better(cand, heap_.back())) return false;
  heap_.pop_back();
  auto pos = std::upper_bound(heap_.begin(), heap_.end(), cand, Better);
  heap_.insert(pos, cand);
  return true;
}

void StreamingTopK::Reset() {
  heap_.clear();
  pushed_ = 0;
}

std::vector<ScoredIndex> TopK(std::span<const std::int32_t> row,
                              std::size_t k) {
  StreamingTopK sel(k);
  for (std::size_t j = 0; j < row.size(); ++j) {
    sel.Push(row[j], static_cast<std::uint32_t>(j));
  }
  return sel.Result();
}

}  // namespace latte
