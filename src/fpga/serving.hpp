#pragma once
// Online serving simulation: Poisson arrivals, the shared length-aware
// batch former, and the accelerator model as the backend device.
//
// The paper evaluates fixed batches (size 16); serving with a request
// stream is the deployment scenario its introduction motivates (variable
// lengths arriving continuously).  This module measures what the
// length-aware design buys in *tail latency*: the padded-dense baseline
// wastes device time on padding, queues grow, and p95/p99 explode earlier
// as the arrival rate approaches saturation.
//
// Arrival generation (workload/arrivals), batch forming
// (serve/batch_former), dispatch and report accounting (serve/dispatch)
// are shared with the functional ServingEngine: replaying the same trace
// through the engine with a kAccelerator ServiceModelSpec
// (serve/service_model.hpp) reproduces this simulation's report exactly,
// while also computing real tensors.
//
// Semantic change vs the pre-refactor simulator: batch forming is now
// *trace-driven* (a batch's admission window opens at its first request's
// arrival), where the old code opened the window only once a worker was
// free (open = max(worker_free, arrival)).  Under backlog the old former
// therefore grew batches toward max_batch while the new one keeps sealing
// arrival-time windows, so absolute numbers in the saturation regime
// shifted.  The trade is deliberate: trace-driven forming makes batches
// identical at any worker count — the property that lets the functional
// engine replay the simulator's exact batches — and the qualitative
// story (the padded baseline saturates first) is unchanged.

#include "config/check.hpp"
#include "fpga/accelerator.hpp"
#include "serve/batch_former.hpp"
#include "serve/dispatch.hpp"
#include "workload/dataset.hpp"

namespace latte {

/// Serving scenario knobs.  Batching is the serve-layer former config
/// itself (`former.max_batch`, `former.timeout_s`, plus the token budget
/// and length-sorting knobs the twin now inherits for free) -- the twin
/// no longer duplicates those fields.
struct ServingConfig {
  double arrival_rate_rps = 50;  ///< Poisson arrival rate (requests/s)
  BatchFormerConfig former;      ///< shared batch-forming knobs
  std::size_t requests = 512;    ///< simulated request count
  std::uint64_t seed = 1;        ///< arrivals + lengths
  /// Concurrent backend workers (devices / BatchRunner slots): formed
  /// batches dispatch to the earliest-free worker, mirroring the host-side
  /// batched execution runtime.  1 reproduces the single-device model.
  std::size_t workers = 1;
  AcceleratorConfig accel;  ///< backend device configuration
};

/// Names every illegal field (non-positive arrival rate, malformed former
/// -- "former."-prefixed -- zero requests, zero workers); empty means
/// legal.
ConfigIssues CheckServingConfig(const ServingConfig& cfg);

/// The Poisson trace a serving scenario implies.
PoissonTraceConfig ServingTrace(const ServingConfig& cfg);

/// Simulates a request stream against the accelerator model.
/// Lengths are sampled from the dataset; the baseline accelerator mode
/// pads to `cfg.accel.baseline_pad_to` as usual.
ServingReport SimulateServing(const ModelConfig& model,
                              const DatasetSpec& dataset,
                              const ServingConfig& cfg);

}  // namespace latte
