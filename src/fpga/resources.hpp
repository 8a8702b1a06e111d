#pragma once
// FPGA device resource model.
//
// Numbers follow the paper's evaluation platform: Xilinx Alveo U280, with
// the design constrained to SLR0 because only SLR0 connects to the HBM
// stacks (Section 5.2).  The paper quotes 3000 usable DSPs in SLR0, 200 MHz
// design frequency, 460 GB/s HBM bandwidth and 8-bit MACs costing one DSP.

#include <cstddef>

namespace latte {

/// Static resources and clocking of one FPGA design region.
struct FpgaSpec {
  const char* name = "U280-SLR0";
  double dsp = 3000;             ///< DSP48 slices usable by the design
  double lut = 400e3;            ///< LUTs usable by At-Sel / sorter fabric
  double freq_hz = 200e6;        ///< attainable design frequency
  double hbm_bandwidth = 460e9;  ///< bytes/s across all HBM channels
  std::size_t hbm_channels = 32; ///< PC0-31
  double hbm_efficiency = 0.80;  ///< sustained fraction of peak HBM BW

  /// Peak 8-bit MAC throughput in ops/s (2 ops per MAC, 1 DSP per MAC).
  double PeakOpsPerSecond() const { return dsp * 2.0 * freq_hz; }
  /// Sustained HBM bytes/s.
  double SustainedHbm() const { return hbm_bandwidth * hbm_efficiency; }
};

/// The evaluation device of the paper.
FpgaSpec AlveoU280Slr0();

}  // namespace latte
