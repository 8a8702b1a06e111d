// Ablation: sensitivity of the design to chip parameters -- DSP budget,
// HBM bandwidth and clock frequency.  Identifies which resource the
// length-aware sparse design actually rides (the paper: "push the hardware
// design to the computation roof", i.e. DSP-bound after sparsification).

#include <cstdio>

#include "bench_common.hpp"

using namespace latte;
using namespace latte::bench;

namespace {

double Latency(const FpgaSpec& spec, const ModelConfig& model,
               const std::vector<std::size_t>& lens) {
  AcceleratorConfig cfg;
  cfg.spec = spec;
  return RunAccelerator(model, lens, cfg).makespan;
}

}  // namespace

int main() {
  std::printf("== Ablation: chip-parameter sensitivity (BERT-base, SQuAD "
              "batch 16, Top-30) ==\n\n");
  const auto model = BertBase();
  const auto lens = SampleBatch(Squad(), 16, 42);
  const auto nominal = AlveoU280Slr0();
  const double t0 = Latency(nominal, model, lens);
  std::printf("nominal latency: %.3f ms (U280 SLR0: %.0f DSP, %.0f GB/s "
              "HBM, %.0f MHz)\n\n",
              t0 * 1e3, nominal.dsp, nominal.hbm_bandwidth / 1e9,
              nominal.freq_hz / 1e6);

  TextTable table({"parameter", "x0.25", "x0.5", "x1", "x2", "x4"});
  const std::vector<double> scales = {0.25, 0.5, 1.0, 2.0, 4.0};

  auto sweep = [&](const char* name, auto mutate) {
    std::vector<std::string> row = {name};
    for (double s : scales) {
      FpgaSpec spec = nominal;
      mutate(spec, s);
      row.push_back(FmtX(t0 / Latency(spec, model, lens)));
    }
    table.AddRow(row);
  };
  sweep("DSP count", [](FpgaSpec& s, double f) { s.dsp *= f; });
  sweep("HBM bandwidth", [](FpgaSpec& s, double f) { s.hbm_bandwidth *= f; });
  sweep("clock frequency", [](FpgaSpec& s, double f) { s.freq_hz *= f; });
  sweep("LUT budget", [](FpgaSpec& s, double f) { s.lut *= f; });

  std::printf("%s\n", table.Render().c_str());
  std::printf("(cells are speedups over the nominal chip; ~linear in DSP "
              "and frequency = compute-roof bound; flat in HBM/LUT = the "
              "sparse design decongested memory and the pre-selection "
              "fabric, exactly the paper's argument.)\n");
  return 0;
}
