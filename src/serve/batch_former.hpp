#pragma once
// Length-aware continuous batch forming over a timestamped request stream.
//
// The former is *trace-driven*: batch membership depends only on arrival
// times, sequence lengths and the former's own knobs -- never on how fast
// the backend happens to run.  That is what makes serving deterministic
// (the same trace forms the same batches at any worker or thread count)
// and lets the offline reference (FormBatches + ScheduleFormedBatches)
// and the serving engine execute identical batches from a shared trace.
//
// A batch opens when its first request arrives and is sealed by whichever
// trigger fires first:
//   * capacity     -- the batch reached `max_batch` sequences;
//   * token budget -- the next request would push the batch past
//                     `max_tokens` (the request starts the next batch);
//   * timeout      -- no request arrived within `timeout_s` of the batch
//                     opening (also how the trailing batch is sealed: a
//                     streaming former cannot know the stream ended, so it
//                     waits out its timer).
// Sealing by capacity happens at the filling request's arrival; sealing by
// token budget at the overflowing request's arrival; sealing by timeout at
// the deadline itself.

#include <cstddef>
#include <vector>

#include "config/check.hpp"
#include "workload/arrivals.hpp"

namespace latte {

/// Why a batch was sealed.
enum class BatchSeal { kCapacity, kTokenBudget, kTimeout };

/// Batch-forming knobs.
struct BatchFormerConfig {
  std::size_t max_batch = 16;  ///< capacity flush threshold (sequences)
  std::size_t max_tokens = 0;  ///< token-budget flush threshold; 0 = none
  double timeout_s = 0.02;     ///< flush a partial batch after this wait
  /// Dispatch each batch's sequences in decreasing-length order (the
  /// paper's sorted micro-batching; membership is unaffected).
  bool sort_by_length = false;
};

/// Names every illegal field (zero capacity, negative or NaN timeout);
/// empty means legal.
ConfigIssues CheckBatchFormerConfig(const BatchFormerConfig& cfg);

/// One formed batch: trace indices in dispatch order plus seal accounting.
struct FormedBatch {
  std::vector<std::size_t> indices;  ///< into the trace, dispatch order
  double open_s = 0;                 ///< first member's arrival
  double ready_s = 0;                ///< when the batch was sealed
  std::size_t tokens = 0;            ///< sum of member lengths
  BatchSeal seal = BatchSeal::kTimeout;
  /// Service tier the batch was formed under (adapt/controller ladder
  /// index).  0 -- the full model -- for every non-adaptive former.
  std::size_t tier = 0;
};

/// Forms batches over an arrival-ordered trace.  Every request lands in
/// exactly one batch; a request longer than `max_tokens` still forms its
/// own singleton batch (the budget never blocks the first member).
std::vector<FormedBatch> FormBatches(const std::vector<TimedRequest>& trace,
                                     const BatchFormerConfig& cfg);

/// Member lengths of a formed batch, in dispatch order.
std::vector<std::size_t> BatchLengths(const std::vector<TimedRequest>& trace,
                                      const FormedBatch& batch);

}  // namespace latte
