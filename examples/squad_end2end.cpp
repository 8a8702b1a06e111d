// End-to-end scenario from the paper's evaluation: BERT-base over a
// SQuAD-shaped batch of 16, on all five designs of Fig 7(a).
//
//   $ ./squad_end2end [batch_size] [top_k]
//
// Walks through the whole public API: dataset sampling, batching policies,
// the CPU/GPU roofline models, and the FPGA accelerator in baseline and
// length-aware modes, then prints latency / throughput / equivalent GOPS.

#include <cstdio>
#include <cstdlib>

#include "latte/latte.hpp"

int main(int argc, char** argv) {
  using namespace latte;

  const std::size_t batch =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 16;
  const std::size_t top_k =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 30;

  const auto model = BertBase();
  const auto dataset = Squad();
  const auto pad_to = static_cast<std::size_t>(dataset.max_len);

  Rng rng(2022);
  LengthSampler sampler(dataset);
  const auto lens = sampler.SampleMany(rng, batch);

  std::printf("BERT-base on %s, batch %zu, Top-%zu sparse attention\n",
              dataset.name.c_str(), batch, top_k);
  std::printf("sampled lengths:");
  for (auto n : lens) std::printf(" %zu", n);
  std::printf("\n\n");

  TextTable table({"design", "latency (ms)", "seq/s", "speedup vs CPU"});
  const auto cpu = RunPlatform(XeonGold5218(), model, lens,
                               BatchPolicy::kPadToMax, pad_to);
  const auto tx2 = RunPlatform(JetsonTx2(), model, lens,
                               BatchPolicy::kPadToMax, pad_to);
  const auto gpu = RunPlatform(QuadroRtx6000(), model, lens,
                               BatchPolicy::kPadToMax, pad_to);

  AcceleratorConfig base_cfg;
  base_cfg.mode = FpgaMode::kBaseline;
  base_cfg.baseline_pad_to = pad_to;
  const auto fpga_base = RunAccelerator(model, lens, base_cfg);

  AcceleratorConfig aware_cfg;
  aware_cfg.top_k = top_k;
  const auto fpga = RunAccelerator(model, lens, aware_cfg);

  auto add = [&](const char* name, double latency) {
    table.AddRow({name, Fmt(latency * 1e3, 1),
                  Fmt(static_cast<double>(batch) / latency, 1),
                  FmtX(cpu.latency_s / latency)});
  };
  add("CPU Xeon Gold 5218 (padded dense)", cpu.latency_s);
  add("Jetson TX2 (padded dense)", tx2.latency_s);
  add("Quadro RTX 6000 (padded dense)", gpu.latency_s);
  add("FPGA baseline (padded dense)", fpga_base.makespan);
  add("FPGA length-aware sparse (ours)", fpga.makespan);
  std::printf("%s\n", table.Render().c_str());

  std::printf("FPGA equivalent throughput: %.0f GOPS (DSP roof: %.0f GOPS; "
              "saved work counts as done)\n",
              cpu.computed_flops / fpga.makespan / 1e9,
              AlveoU280Slr0().PeakOpsPerSecond() / 1e9);
  std::printf("padding overhead of the dense designs: %.2fx computed vs "
              "useful FLOPs\n",
              cpu.computed_flops / cpu.useful_dense_flops);
  const auto util = fpga.StageUtilization();
  std::printf("FPGA stage utilization: %.1f%% / %.1f%% / %.1f%%\n",
              100 * util[0], 100 * util[1], 100 * util[2]);
  return 0;
}
