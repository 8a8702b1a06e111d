#include "serve/dispatch.hpp"

#include <algorithm>
#include <stdexcept>

namespace latte {

DispatchSchedule ScheduleFormedBatches(const std::vector<TimedRequest>& trace,
                                       const std::vector<FormedBatch>& batches,
                                       std::size_t workers,
                                       const BatchServiceModel& service) {
  if (workers == 0) {
    throw std::invalid_argument(
        "ScheduleFormedBatches: workers must be >= 1 (no backend to "
        "dispatch to)");
  }
  DispatchSchedule sched;
  sched.launch_s.reserve(batches.size());
  sched.done_s.reserve(batches.size());
  sched.service_s.reserve(batches.size());
  sched.worker_of.reserve(batches.size());

  std::vector<double> worker_free(workers, 0.0);
  std::vector<double> latencies;
  latencies.reserve(trace.size());
  double busy = 0;
  for (const FormedBatch& b : batches) {
    auto free_it = std::min_element(worker_free.begin(), worker_free.end());
    const double launch = std::max(*free_it, b.ready_s);
    const double service_s = service(BatchLengths(trace, b));
    const double done = launch + service_s;
    for (std::size_t idx : b.indices) {
      latencies.push_back(done - trace[idx].arrival_s);
    }
    busy += service_s;
    *free_it = done;
    sched.launch_s.push_back(launch);
    sched.done_s.push_back(done);
    sched.service_s.push_back(service_s);
    sched.worker_of.push_back(
        static_cast<std::size_t>(free_it - worker_free.begin()));
  }

  double span = 0;
  if (!batches.empty()) {
    const double last_done =
        *std::max_element(sched.done_s.begin(), sched.done_s.end());
    span = last_done - trace.front().arrival_s;
  }
  sched.report =
      BuildServingReport(latencies, batches.size(), busy, span, workers);
  return sched;
}

}  // namespace latte
