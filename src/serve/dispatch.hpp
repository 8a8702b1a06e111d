#pragma once
// Virtual-time dispatch of formed batches onto concurrent backend workers.
//
// Each formed batch launches on the earliest-free of `workers` backend
// slots, never before the batch is sealed.  The service model decides the
// price -- built from a ServiceModelSpec (serve/service_model.hpp) or any
// other deterministic cost model.
// ScheduleFormedBatches runs the recurrence offline over a whole trace;
// ServingEngine runs the same one incrementally, so the offline schedule
// is the reference the engine is tested against.

#include <functional>

#include "serve/batch_former.hpp"
#include "serve/report.hpp"

namespace latte {

/// Service time (seconds) of one batch, given its member lengths in
/// dispatch order.  Must be deterministic for replay determinism.
using BatchServiceModel =
    std::function<double(const std::vector<std::size_t>& lengths)>;

/// Full virtual-time schedule of a formed-batch sequence.
struct DispatchSchedule {
  ServingReport report;
  std::vector<double> launch_s;   ///< per batch: dispatch time
  std::vector<double> done_s;     ///< per batch: completion time
  std::vector<double> service_s;  ///< per batch: modeled service time
  /// Per batch: the earliest-free worker slot that served it.  Purely an
  /// attribution record (the tracer's worker tracks); scheduling itself
  /// only ever needed the slot's free time.
  std::vector<std::size_t> worker_of;
};

/// Schedules `batches` (in order) onto `workers` earliest-free slots and
/// accounts per-request latency (arrival -> batch completion), throughput
/// and busy fraction into a ServingReport.  The offline reference
/// recurrence: ServingEngine runs the same one incrementally, pricing each
/// batch once at launch.
DispatchSchedule ScheduleFormedBatches(const std::vector<TimedRequest>& trace,
                                       const std::vector<FormedBatch>& batches,
                                       std::size_t workers,
                                       const BatchServiceModel& service);

}  // namespace latte
