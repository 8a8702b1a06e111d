#pragma once
// One construction surface for batch service models.
//
// Every question of the form "what does a batch cost?" is answered by a
// single declarative value, ServiceModelSpec, and one factory,
// BuildServiceModel(spec), that composes base pricing (token-linear /
// padded / accelerator twin) with optional tensor-parallel gang wrapping.
// A heterogeneous fleet is one spec per replica.  BuildTierServiceModels
// derives the adaptive ladder's per-tier models from the same spec by
// overriding only the accelerator's top_k -- tier pricing and replica
// pricing cannot drift apart.

#include <vector>

#include "adapt/controller.hpp"
#include "config/check.hpp"
#include "fpga/accelerator.hpp"
#include "model/config.hpp"
#include "serve/dispatch.hpp"
#include "serve/shard_service.hpp"

namespace latte {

/// Declarative description of a batch service model.
struct ServiceModelSpec {
  /// The base price of a batch.
  enum class Base {
    kTokenLinear,   ///< overhead + spt * sum(len): the host-side default
    kPadded,        ///< overhead + spt * max(len) * |batch|: padded-dense
    kAccelerator,   ///< RunAccelerator latency: the performance twin
  };
  Base base = Base::kTokenLinear;

  // kTokenLinear / kPadded knobs.
  double seconds_per_token = 2e-6;
  double batch_overhead_s = 2e-4;

  // kAccelerator knobs (also consulted for sharded wrapping, which needs
  // the encoder shape regardless of base).
  ModelConfig model;
  AcceleratorConfig accel;

  /// Wrap the base price with a tensor-parallel gang
  /// (MakeShardedServiceModel over `shard`).  Leave false when the engine
  /// owns the wrapping (BackendMode::kSharded wraps at construction).
  bool sharded = false;
  ShardServiceConfig shard;
};

/// Names every illegal field (non-positive token cost, negative overhead,
/// malformed shard config -- "shard."-prefixed); empty means legal.
ConfigIssues CheckServiceModelSpec(const ServiceModelSpec& spec);

/// Builds the service model a spec describes.  Throws
/// std::invalid_argument (via the named-field validation) on a malformed
/// spec; the sharded wrap additionally throws if the plan does not fit
/// the model's encoder shape.
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
