#include "serve/batch_former.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace latte {

ConfigIssues CheckBatchFormerConfig(const BatchFormerConfig& cfg) {
  ConfigIssues issues;
  if (cfg.max_batch == 0) {
    AddIssue(issues, "max_batch",
             "must be >= 1 (the former needs capacity for at least one "
             "request)");
  }
  // Negated comparison so NaN fails validation instead of slipping past.
  if (!(cfg.timeout_s >= 0)) {
    AddIssue(issues, "timeout_s",
             "must be >= 0 (got " + std::to_string(cfg.timeout_s) + ")");
  }
  return issues;
}

std::vector<FormedBatch> FormBatches(const std::vector<TimedRequest>& trace,
                                     const BatchFormerConfig& cfg) {
  ThrowOnIssues("BatchFormerConfig", CheckBatchFormerConfig(cfg));
  std::vector<FormedBatch> batches;
  std::size_t next = 0;
  while (next < trace.size()) {
    FormedBatch b;
    b.open_s = trace[next].arrival_s;
    const double deadline = b.open_s + cfg.timeout_s;
    // The first member is always admitted, even past the token budget.
    std::size_t end = next;
    b.tokens = trace[end].length;
    ++end;
    b.seal = BatchSeal::kTimeout;
    b.ready_s = deadline;
    while (end < trace.size()) {
      if (end - next >= cfg.max_batch) {
        b.seal = BatchSeal::kCapacity;
        b.ready_s = trace[end - 1].arrival_s;
        break;
      }
      if (trace[end].arrival_s > deadline) break;  // timeout seal
      if (cfg.max_tokens > 0 && b.tokens + trace[end].length > cfg.max_tokens) {
        b.seal = BatchSeal::kTokenBudget;
        b.ready_s = trace[end].arrival_s;
        break;
      }
      b.tokens += trace[end].length;
      ++end;
    }
    // A capacity seal can also fire when the stream ends exactly at
    // capacity: the batch filled at its last member's arrival.
    if (end == trace.size() && end - next >= cfg.max_batch) {
      b.seal = BatchSeal::kCapacity;
      b.ready_s = trace[end - 1].arrival_s;
    }
    b.indices.resize(end - next);
    for (std::size_t i = next; i < end; ++i) b.indices[i - next] = i;
    if (cfg.sort_by_length) {
      std::stable_sort(b.indices.begin(), b.indices.end(),
                       [&trace](std::size_t a, std::size_t c) {
                         return trace[a].length > trace[c].length;
                       });
    }
    batches.push_back(std::move(b));
    next = end;
  }
  return batches;
}

std::vector<std::size_t> BatchLengths(const std::vector<TimedRequest>& trace,
                                      const FormedBatch& batch) {
  std::vector<std::size_t> lens;
  lens.reserve(batch.indices.size());
  for (std::size_t idx : batch.indices) lens.push_back(trace[idx].length);
  return lens;
}

}  // namespace latte
