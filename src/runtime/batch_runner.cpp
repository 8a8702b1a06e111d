#include "runtime/batch_runner.hpp"

#include <algorithm>
#include <atomic>

namespace latte {

BatchRunner::BatchRunner(std::size_t threads) : pool_(threads) {
  workspaces_ = std::vector<Workspace>(pool_.size());
}

void BatchRunner::Run(std::size_t items, const ItemFn& fn) {
  if (items == 0) return;

  // One task per slot; every task drains the shared cursor.  Tying the
  // workspace to the *task* (not the executing thread) keeps each arena
  // single-owner even if one thread happens to pick up two slot tasks.
  // A failed item flips `abort` so the other slots stop drawing new items
  // instead of computing the rest of a doomed batch; the pool rethrows
  // the first exception from Wait().
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> abort{false};
  const std::size_t slots = std::min(items, workspaces_.size());
  for (std::size_t slot = 0; slot < slots; ++slot) {
    Workspace* ws = &workspaces_[slot];
    pool_.Submit([&cursor, &abort, items, &fn, ws] {
      for (std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
           i < items && !abort.load(std::memory_order_relaxed);
           i = cursor.fetch_add(1, std::memory_order_relaxed)) {
        try {
          fn(i, *ws);
        } catch (...) {
          abort.store(true, std::memory_order_relaxed);
          throw;
        }
      }
    });
  }
  pool_.Wait();
  items_completed_ += items;
}

}  // namespace latte
