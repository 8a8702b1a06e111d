#pragma once
// Serving metrics shared by the offline dispatch reference
// (serve/dispatch's ScheduleFormedBatches) and the serving engine
// (serve/engine).
//
// Both report the same structure from the same accounting code, so a
// scenario replayed offline and on the engine produces directly
// comparable -- and, with the same service model, identical -- numbers.

#include <cstddef>
#include <vector>

namespace latte {

/// Per-tier accounting of an adaptive run: how many requests and batches
/// each rung of the service ladder absorbed, and what accuracy it
/// promised them (from the tier's fidelity table entry).
struct TierUsage {
  std::size_t top_k = 0;      ///< the tier's sparse attention budget
  std::size_t requests = 0;   ///< requests whose final service was this tier
  std::size_t batches = 0;    ///< batches formed at this tier
  std::size_t escalated = 0;  ///< first passes escalated away to tier 0
  double accuracy = 1.0;      ///< modeled accuracy of this tier
};

/// Aggregate serving metrics.
struct ServingReport {
  std::size_t requests = 0;
  std::size_t batches = 0;
  double mean_batch_size = 0;
  double mean_latency_s = 0;    ///< arrival -> batch completion
  double p50_latency_s = 0;
  double p95_latency_s = 0;
  double p99_latency_s = 0;
  double throughput_rps = 0;    ///< completed requests / simulated span
  double device_busy_frac = 0;  ///< worker utilization over the span
  /// Request-weighted mean of the modeled per-tier accuracy; 1.0 whenever
  /// every request got the full model (the non-adaptive paths).
  double mean_accuracy = 1.0;
  /// Per-tier breakdown, parallel to the adaptive ladder.  Empty for
  /// non-adaptive runs.
  std::vector<TierUsage> tiers;
};

/// Builds a ServingReport from per-request latencies and span accounting.
/// `latencies` is consumed (sorted in place); `busy_s` is the total busy
/// worker-seconds, `span_s` the first-arrival -> last-completion span and
/// `workers` the number of concurrent backend slots the busy fraction is
/// averaged over.
ServingReport BuildServingReport(std::vector<double>& latencies,
                                 std::size_t batches, double busy_s,
                                 double span_s, std::size_t workers);

}  // namespace latte
