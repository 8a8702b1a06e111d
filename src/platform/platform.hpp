#pragma once
// Roofline performance models of the paper's comparison platforms
// (Section 5: Intel Xeon Gold 5218, NVIDIA Jetson TX2, Quadro RTX 6000,
// under PyTorch 1.10 / Transformers 4.13).
//
// Substitute for physical hardware (DESIGN.md section 2).  Each operator of
// the dense encoder is charged
//
//   t(op) = max( flops / throughput_class ,  bytes / mem_bandwidth )
//           + kernel_overhead
//
// where the throughput class separates GEMM-shaped operators (which reach a
// calibrated fraction of peak) from bandwidth-bound elementwise/softmax/
// normalization operators.  CPUs and GPUs pad every sequence to the batch
// maximum (Section 5.2: "the sequence length is padded to the maximum
// sequence length for the CPU and GPU design").

#include <string>
#include <vector>

#include "model/config.hpp"
#include "workload/batch.hpp"

namespace latte {

/// Calibrated platform description.
struct PlatformModel {
  std::string name;
  double gemm_flops = 1e12;        ///< sustained FLOP/s on large GEMMs
  double elementwise_flops = 1e11; ///< sustained FLOP/s on pointwise ops
  double mem_bandwidth = 1e11;     ///< bytes/s
  double dtype_bytes = 4;          ///< activation/weight element size
  double kernel_overhead_s = 1e-5; ///< launch/dispatch cost per op per layer
  double power_w = 100;            ///< board/package power for Table 2
  /// Occupancy saturation of GEMM kernels: a kernel with f FLOPs sustains
  ///   gemm_flops * f / (f + gemm_saturation_flops).
  /// Small kernels (single-sequence per-head attention matmuls) run far
  /// below the roofline; large batched GEMMs approach it.  This one knob
  /// reproduces both the Fig 1(c) single-sequence breakdown and the
  /// batch-16 Fig 7 throughputs.
  double gemm_saturation_flops = 2e8;
  /// The attention pointwise kernels (scale, mask, softmax) dispatch per
  /// head; their launch overhead multiplies by roughly the head count.
  double attn_pointwise_overhead_mult = 12;
};

/// Intel Xeon Gold 5218 (16C/2.3GHz, PyTorch fp32).  Sustained GEMM rate is
/// what PyTorch reaches on transformer shapes, far below the 1.2 TFLOP/s
/// architectural peak.
PlatformModel XeonGold5218();
/// NVIDIA Jetson TX2 (256-core Pascal, fp16).
PlatformModel JetsonTx2();
/// NVIDIA Quadro RTX 6000 (PyTorch fp32 + cuBLAS).
PlatformModel QuadroRtx6000();

/// Result of running one batch on a platform model.
struct PlatformReport {
  double latency_s = 0;            ///< whole batch, all layers
  double attention_latency_s = 0;  ///< score..context operators only
  double computed_flops = 0;       ///< includes padding waste
  double useful_dense_flops = 0;   ///< dense FLOPs at true lengths
};

/// Runs a dense, padded batch through the platform model.  `pad_to` > 0
/// pads to at least that length (the task maximum in the paper's setup).
PlatformReport RunPlatform(const PlatformModel& platform,
                           const ModelConfig& model,
                           const std::vector<std::size_t>& lengths,
                           BatchPolicy policy = BatchPolicy::kPadToMax,
                           std::size_t pad_to = 0);

/// Seconds one operator kernel takes for a single sequence of length n
/// (the Fig 1(c) per-operator measurement).
double PlatformOpSeconds(const PlatformModel& platform, const OpSpec& op,
                         double n);

}  // namespace latte
