#include "fpga/serving.hpp"

#include <string>

#include "serve/service_model.hpp"

namespace latte {

ConfigIssues CheckServingConfig(const ServingConfig& cfg) {
  ConfigIssues issues;
  // Negated comparison so NaN fails validation instead of slipping past.
  if (!(cfg.arrival_rate_rps > 0)) {
    AddIssue(issues, "arrival_rate_rps",
             "must be > 0 (got " + std::to_string(cfg.arrival_rate_rps) + ")");
  }
  MergePrefixed(issues, "former", CheckBatchFormerConfig(cfg.former));
  if (cfg.requests == 0) {
    AddIssue(issues, "requests", "must be >= 1 (nothing to simulate)");
  }
  if (cfg.workers == 0) {
    AddIssue(issues, "workers", "must be >= 1 (no backend to dispatch to)");
  }
  return issues;
}

PoissonTraceConfig ServingTrace(const ServingConfig& cfg) {
  PoissonTraceConfig trace;
  trace.arrival_rate_rps = cfg.arrival_rate_rps;
  trace.requests = cfg.requests;
  trace.seed = cfg.seed;
  return trace;
}

ServingReport SimulateServing(const ModelConfig& model,
                              const DatasetSpec& dataset,
                              const ServingConfig& cfg) {
  ThrowOnIssues("ServingConfig", CheckServingConfig(cfg));
  ServiceModelSpec spec;
  spec.base = ServiceModelSpec::Base::kAccelerator;
  spec.model = model;
  spec.accel = cfg.accel;
  const auto trace = GeneratePoissonTrace(ServingTrace(cfg), dataset);
  const auto batches = FormBatches(trace, cfg.former);
  return ScheduleFormedBatches(trace, batches, cfg.workers,
                               BuildServiceModel(spec))
      .report;
}

}  // namespace latte
