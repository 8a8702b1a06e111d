#pragma once
// Energy / efficiency accounting for Table 2.

#include <string>
#include <vector>

#include "fpga/resources.hpp"

namespace latte {

/// One row of Table 2.
struct EnergyRow {
  std::string work;
  double gops = 0;       ///< throughput (GOP/s)
  double gop_per_j = 0;  ///< energy efficiency (GOP/J); <= 0 means N/A
  double accuracy_drop_pct = 0;
  bool cited = false;    ///< literature constant, not measured here
};

/// FPGA board power model: static power plus dynamic power scaling with DSP
/// utilization.  With full SLR0 utilization this lands around the ~35 W the
/// paper's 3600 GOPS / 102 GOP/J implies.
double FpgaPowerWatts(const FpgaSpec& spec, double dsp_utilization);

/// GOP/J from throughput and power.
double EnergyEfficiency(double gops, double watts);

/// Literature rows of Table 2 (cited, not simulated):
/// GPU V100 E.T. [18], FPGA design [37], ASIC A3 [12], ASIC SpAtten [13].
std::vector<EnergyRow> CitedTable2Rows();

/// Geometric mean of a list of positive ratios.
double GeoMean(const std::vector<double>& xs);

/// Itemized dynamic energy of one accelerator batch.
struct EnergyBreakdown {
  double compute_j = 0;  ///< DSP MACs
  double select_j = 0;   ///< At-Sel LUT work
  double onchip_j = 0;   ///< buffer traffic
  double offchip_j = 0;  ///< HBM traffic
  double static_j = 0;   ///< leakage + shell over the batch latency

  double TotalJoules() const {
    return compute_j + select_j + onchip_j + offchip_j + static_j;
  }
};

/// Energy of one batch given its executed work and latency.
/// `dsp_macs` is executed MAC count, `lut_ops` the At-Sel lane ops,
/// `onchip_bytes`/`offchip_bytes` the buffer/HBM traffic.  Each class is
/// priced at a fixed per-op dynamic energy of the 8-bit FPGA datapath
/// (energy.cpp), dominated by the published per-op energies of 45 nm
/// scaled arithmetic plus SRAM/HBM access costs.
EnergyBreakdown EstimateBatchEnergy(double dsp_macs, double lut_ops,
                                    double onchip_bytes,
                                    double offchip_bytes, double latency_s);

}  // namespace latte
