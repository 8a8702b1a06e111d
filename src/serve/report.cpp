#include "serve/report.hpp"

#include <algorithm>

#include "obs/percentiles.hpp"

namespace latte {

ServingReport BuildServingReport(std::vector<double>& latencies,
                                 std::size_t batches, double busy_s,
                                 double span_s, std::size_t workers) {
  ServingReport rep;
  rep.requests = latencies.size();
  rep.batches = batches;
  if (batches > 0) {
    rep.mean_batch_size =
        static_cast<double>(rep.requests) / static_cast<double>(batches);
  }
  if (latencies.empty()) return rep;
  double sum = 0;
  for (double l : latencies) sum += l;
  rep.mean_latency_s = sum / static_cast<double>(latencies.size());
  std::sort(latencies.begin(), latencies.end());
  rep.p50_latency_s = obs::PercentileOfSorted(latencies, 0.50);
  rep.p95_latency_s = obs::PercentileOfSorted(latencies, 0.95);
  rep.p99_latency_s = obs::PercentileOfSorted(latencies, 0.99);
  rep.throughput_rps =
      span_s > 0 ? static_cast<double>(rep.requests) / span_s : 0;
  rep.device_busy_frac =
      span_s > 0 ? busy_s / (span_s * static_cast<double>(workers)) : 0;
  return rep;
}

}  // namespace latte
