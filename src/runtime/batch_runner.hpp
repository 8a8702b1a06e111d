#pragma once
// Batch-level parallel executor: the top of the batched execution runtime.
//
// A BatchRunner owns a ThreadPool and one Workspace per concurrency slot.
// Run() executes a caller-supplied function over every item of a batch;
// items are handed out dynamically (an atomic cursor), so a batch of
// variable-length sequences load-balances the way the paper's length-aware
// scheduler intends -- long sequences do not stall a statically assigned
// worker while others sit idle.  Each slot's function invocations see the
// same Workspace, giving the allocation-free hot path its reuse without
// any locking (slots never share buffers).
//
// Determinism: each item's computation is independent and runs exactly the
// same code as a sequential loop, so outputs are bit-identical to running
// `for (i in batch) fn(i, ws)` single-threaded -- only the assignment of
// items to slots varies run to run.

#include <cstddef>
#include <functional>

#include "runtime/thread_pool.hpp"
#include "runtime/workspace.hpp"

namespace latte {

/// Runs batches of independent per-sequence jobs over a worker pool.
class BatchRunner {
 public:
  /// A runner with `threads` workers; 0 picks
  /// std::thread::hardware_concurrency().
  explicit BatchRunner(std::size_t threads);

  BatchRunner(const BatchRunner&) = delete;
  BatchRunner& operator=(const BatchRunner&) = delete;

  /// Concurrency slots (== worker threads).
  std::size_t workers() const { return pool_.size(); }

  /// The per-slot scratch arena (exposed for tests and benchmarks).
  Workspace& workspace(std::size_t slot) { return workspaces_[slot]; }

  /// Per-item job: receives the item index and the slot's Workspace.
  using ItemFn = std::function<void(std::size_t item, Workspace& ws)>;

  /// Executes fn for every item in [0, items), in parallel across the
  /// pool, and blocks until the batch is done.  The first exception thrown
  /// by any item is rethrown here.  Not reentrant: one Run() at a time.
  void Run(std::size_t items, const ItemFn& fn);

  /// Items executed across all Run() calls (utilization accounting).
  std::size_t items_completed() const { return items_completed_; }

  /// The underlying pool, for health metrics (obs::ExportThreadPoolStats).
  const ThreadPool& pool() const { return pool_; }

 private:
  ThreadPool pool_;
  std::vector<Workspace> workspaces_;
  std::size_t items_completed_ = 0;
};

}  // namespace latte
