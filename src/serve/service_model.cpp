#include "serve/service_model.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

namespace latte {

ConfigIssues CheckServiceModelSpec(const ServiceModelSpec& spec) {
  ConfigIssues issues;
  if (spec.base != ServiceModelSpec::Base::kAccelerator) {
    if (!(spec.seconds_per_token >= 0) ||
        !std::isfinite(spec.seconds_per_token)) {
      AddIssue(issues, "seconds_per_token",
               "must be a non-negative, finite per-token cost");
    }
    if (std::isnan(spec.batch_overhead_s) || spec.batch_overhead_s < 0 ||
        !std::isfinite(spec.batch_overhead_s)) {
      AddIssue(issues, "batch_overhead_s",
               "must be a non-negative, finite per-batch overhead");
    }
  } else {
    if (spec.model.layers == 0) {
      AddIssue(issues, "model.layers",
               "must be >= 1 (the pipeline runs every encoder layer)");
    }
    // Every operator's cost scales with these; the functional encoder
    // rejects the same shapes (MakeEncoderWeights).
    const EncoderConfig& enc = spec.model.encoder;
    if (enc.hidden == 0) {
      AddIssue(issues, "model.encoder.hidden", "must be >= 1");
    }
    if (enc.heads == 0 || enc.hidden % enc.heads != 0) {
      AddIssue(issues, "model.encoder.heads",
               "must be >= 1 and divide model.encoder.hidden");
    }
    // Each stage roof divides by one of these; a zero, negative or NaN
    // value would price batches at nonsense latencies.
    const auto positive = [&issues](double value, const char* field,
                                    const char* what) {
      if (!(value > 0) || !std::isfinite(value)) {
        AddIssue(issues, field,
                 std::string("must be a positive, finite ") + what);
      }
    };
    const FpgaSpec& fpga = spec.accel.spec;
    positive(fpga.freq_hz, "accel.spec.freq_hz", "clock");
    positive(fpga.dsp, "accel.spec.dsp", "DSP count (the compute roof)");
    positive(fpga.lut, "accel.spec.lut", "LUT count (the LUT roof)");
    positive(fpga.hbm_bandwidth, "accel.spec.hbm_bandwidth",
             "peak HBM bandwidth (the memory roof)");
    positive(fpga.hbm_efficiency, "accel.spec.hbm_efficiency",
             "sustained share of peak HBM bandwidth");
    if (fpga.hbm_channels < 3) {
      AddIssue(issues, "accel.spec.hbm_channels",
               "must be >= 3 (one HBM channel per Fig 2(a) stage)");
    }
    if (spec.accel.top_k == 0) {
      AddIssue(issues, "accel.top_k",
               "must be >= 1 (0 selects no attention candidates)");
    }
  }
  return issues;
}

BatchServiceModel BuildServiceModel(const ServiceModelSpec& spec) {
  ThrowOnIssues("ServiceModelSpec", CheckServiceModelSpec(spec));
  const double spt = spec.seconds_per_token;
  const double overhead = spec.batch_overhead_s;
  BatchServiceModel base;
  switch (spec.base) {
    case ServiceModelSpec::Base::kTokenLinear:
      base = [spt, overhead](const std::vector<std::size_t>& lengths) {
        std::size_t tokens = 0;
        for (std::size_t len : lengths) tokens += len;
        return overhead + spt * static_cast<double>(tokens);
      };
      break;
    case ServiceModelSpec::Base::kPadded:
      base = [spt, overhead](const std::vector<std::size_t>& lengths) {
        std::size_t max_len = 0;
        for (std::size_t len : lengths) max_len = std::max(max_len, len);
        return overhead + spt * static_cast<double>(max_len) *
                              static_cast<double>(lengths.size());
      };
      break;
    case ServiceModelSpec::Base::kAccelerator: {
      // The pricer owns its copy of the design point, so the model outlives
      // the spec (engines hold service models for their whole life); copies
      // of the closure share the one immutable pricer.
      auto pricer =
          std::make_shared<const AcceleratorPricer>(spec.model, spec.accel);
      base = [pricer](const std::vector<std::size_t>& lengths) {
        return pricer->Makespan(lengths);
      };
      break;
    }
  }
  return base;
}

ServiceModelSpec WithTopK(ServiceModelSpec spec, std::size_t top_k) {
  spec.accel.top_k = top_k;
  return spec;
}

std::vector<BatchServiceModel> BuildTierServiceModels(
    const ServiceModelSpec& spec, const std::vector<ServiceTier>& tiers) {
  std::vector<BatchServiceModel> models;
  models.reserve(tiers.size());
  for (const ServiceTier& tier : tiers) {
    models.push_back(BuildServiceModel(WithTopK(spec, tier.top_k)));
  }
  return models;
}

}  // namespace latte
