#pragma once
// One construction surface for batch service models.
//
// Every question of the form "what does a batch cost?" is answered by a
// single declarative value, ServiceModelSpec, and one factory,
// BuildServiceModel(spec), that prices a batch by token-linear, padded or
// accelerator-twin cost.  Tensor-parallel gang wrapping belongs to the
// engine alone (BackendMode::kSharded wraps at construction).  A
// heterogeneous fleet is one spec per replica.  BuildTierServiceModels
// derives the adaptive ladder's per-tier models from the same spec by
// overriding only the accelerator's top_k -- tier pricing and replica
// pricing cannot drift apart.

#include <vector>

#include "adapt/controller.hpp"
#include "config/check.hpp"
#include "fpga/accelerator.hpp"
#include "model/config.hpp"
#include "serve/dispatch.hpp"

namespace latte {

/// Declarative description of a batch service model.
struct ServiceModelSpec {
  /// The base price of a batch.
  enum class Base {
    /// overhead + spt * sum(len): the host-side default (the overhead is
    /// what batching amortizes)
    kTokenLinear,
    /// overhead + spt * max(len) * |batch|: every member padded to the
    /// batch's longest, the cost model of the CPU/GPU baselines and the
    /// non-length-aware FPGA mode.  Mixing lengths in a batch wastes
    /// device time on padding, which length-bucketed routing avoids.
    kPadded,
    kAccelerator,   ///< RunAccelerator makespan: the performance twin,
                    ///< priced by an AcceleratorPricer built once per
                    ///< spec (no job list per batch)
  };
  Base base = Base::kTokenLinear;

  // kTokenLinear / kPadded knobs.
  double seconds_per_token = 2e-6;
  double batch_overhead_s = 2e-4;

  // kAccelerator knobs.
  ModelConfig model;
  AcceleratorConfig accel;
};

/// Names every illegal field (negative token cost or overhead;
/// for the accelerator: zero layers, a zero hidden size, heads that are
/// zero or do not divide the hidden size, a non-positive or non-finite
/// clock, DSP count, LUT count or HBM bandwidth or efficiency, fewer than
/// 3 HBM channels, zero top_k); empty means legal.
ConfigIssues CheckServiceModelSpec(const ServiceModelSpec& spec);

/// Builds the service model a spec describes.  Throws
/// std::invalid_argument (via the named-field validation) on a malformed
/// spec.
BatchServiceModel BuildServiceModel(const ServiceModelSpec& spec);

/// Copy of `spec` with the accelerator's sparse top_k overridden -- the
/// one knob a service tier changes.
ServiceModelSpec WithTopK(ServiceModelSpec spec, std::size_t top_k);

/// Per-tier service models for an adaptive ladder: tiers[i] is priced by
/// BuildServiceModel(WithTopK(spec, tiers[i].top_k)).  Feed the result to
/// ServingEngineConfig::tier_services.
std::vector<BatchServiceModel> BuildTierServiceModels(
    const ServiceModelSpec& spec, const std::vector<ServiceTier>& tiers);

}  // namespace latte
