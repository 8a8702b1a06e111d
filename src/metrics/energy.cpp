#include "metrics/energy.hpp"

#include <cmath>
#include <stdexcept>

namespace latte {

double FpgaPowerWatts(const FpgaSpec& spec, double dsp_utilization) {
  if (dsp_utilization < 0 || dsp_utilization > 1.0) {
    throw std::invalid_argument("FpgaPowerWatts: utilization outside [0,1]");
  }
  // Static (HBM + shell + clocking) ~ 12 W, dynamic up to ~23 W for a fully
  // busy SLR0 datapath at 200 MHz.
  const double kStatic = 12.0;
  const double kDynamicFull = 23.0;
  (void)spec;
  return kStatic + kDynamicFull * dsp_utilization;
}

double EnergyEfficiency(double gops, double watts) {
  if (watts <= 0) throw std::invalid_argument("EnergyEfficiency: watts <= 0");
  return gops / watts;
}

std::vector<EnergyRow> CitedTable2Rows() {
  return {
      {"GPU V100: E.T. [18]", 7550, 25, 2.1, true},
      {"FPGA design [37]", 76, -1, 3.8, true},
      {"ASIC: A3 [12]", 221, 269, 1.6, true},
      {"ASIC: SpAtten [13]", 360, 382, 1.1, true},
  };
}

EnergyBreakdown EstimateBatchEnergy(double dsp_macs, double lut_ops,
                                    double onchip_bytes,
                                    double offchip_bytes, double latency_s) {
  // Per-operation dynamic energy (picojoules) of each datapath class.
  constexpr double kDspMacPj = 3.0;    // 8-bit MAC in a DSP slice
  constexpr double kLutOpPj = 0.2;     // 1-bit XNOR-popcount lane op
  constexpr double kBramBytePj = 1.0;  // on-chip buffer access per byte
  constexpr double kHbmBytePj = 30.0;  // off-chip HBM access per byte
  if (dsp_macs < 0 || lut_ops < 0 || onchip_bytes < 0 ||
      offchip_bytes < 0 || latency_s < 0) {
    throw std::invalid_argument("EstimateBatchEnergy: negative input");
  }
  EnergyBreakdown e;
  e.compute_j = dsp_macs * kDspMacPj * 1e-12;
  e.select_j = lut_ops * kLutOpPj * 1e-12;
  e.onchip_j = onchip_bytes * kBramBytePj * 1e-12;
  e.offchip_j = offchip_bytes * kHbmBytePj * 1e-12;
  e.static_j = 12.0 * latency_s;  // the 12 W static floor of FpgaPowerWatts
  return e;
}

double GeoMean(const std::vector<double>& xs) {
  if (xs.empty()) throw std::invalid_argument("GeoMean: empty input");
  double acc = 0.0;
  for (double x : xs) {
    if (x <= 0) throw std::invalid_argument("GeoMean: non-positive value");
    acc += std::log(x);
  }
  return std::exp(acc / static_cast<double>(xs.size()));
}

}  // namespace latte
