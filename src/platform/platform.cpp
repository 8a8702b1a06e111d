#include "platform/platform.hpp"

#include <algorithm>

namespace latte {
namespace {

/// GEMM operators ride the saturating GEMM roofline; the attention
/// pointwise kernels pay per-head dispatch; everything else is elementwise
/// / bandwidth class.
enum class OpClass { kGemm, kAttnPointwise, kPointwise };

OpClass Classify(OpKind kind) {
  switch (kind) {
    case OpKind::kQkvProjection:
    case OpKind::kOutputProjection:
    case OpKind::kFfn1:
    case OpKind::kFfn2:
    case OpKind::kScoreMatMul:
    case OpKind::kContextMatMul:
      return OpClass::kGemm;
    case OpKind::kScale:
    case OpKind::kMask:
    case OpKind::kSoftmax:
      return OpClass::kAttnPointwise;
    default:
      return OpClass::kPointwise;
  }
}

/// Seconds for one kernel of `op` shape executing `flops` / moving `bytes`.
double KernelSeconds(const PlatformModel& p, OpKind kind, double flops,
                     double bytes) {
  const OpClass cls = Classify(kind);
  double tp = p.elementwise_flops;
  double overhead = p.kernel_overhead_s;
  if (cls == OpClass::kGemm) {
    // Occupancy-saturating roofline: small kernels underutilize the device.
    tp = flops > 0
             ? p.gemm_flops * flops / (flops + p.gemm_saturation_flops)
             : p.gemm_flops;
  } else if (cls == OpClass::kAttnPointwise) {
    overhead *= p.attn_pointwise_overhead_mult;
  }
  const double compute = tp > 0 ? flops / tp : 0.0;
  return std::max(compute, bytes / p.mem_bandwidth) + overhead;
}

}  // namespace

PlatformModel XeonGold5218() {
  PlatformModel p;
  p.name = "CPU Xeon Gold 5218";
  p.gemm_flops = 57e9;        // PyTorch fp32 GEMM on transformer shapes
  p.elementwise_flops = 6e9;  // bandwidth-bound pointwise throughput
  p.mem_bandwidth = 100e9;    // 6-channel DDR4-2666
  p.dtype_bytes = 4;
  p.kernel_overhead_s = 25e-6;
  p.power_w = 125;            // TDP
  p.gemm_saturation_flops = 5e6;  // CPUs keep small GEMMs cache-resident
  p.attn_pointwise_overhead_mult = 4;  // cheap dispatch, but per head
  return p;
}

PlatformModel JetsonTx2() {
  PlatformModel p;
  p.name = "Jetson TX2";
  p.gemm_flops = 124e9;       // fp16 on 256 Pascal cores, real utilization
  p.elementwise_flops = 29e9;
  p.mem_bandwidth = 58e9;     // LPDDR4
  p.dtype_bytes = 2;
  p.kernel_overhead_s = 60e-6;
  p.power_w = 15;
  p.gemm_saturation_flops = 0.5e9;  // tiny GPU, occupancy builds up slowly
  p.attn_pointwise_overhead_mult = 4;
  return p;
}

PlatformModel QuadroRtx6000() {
  PlatformModel p;
  p.name = "Quadro RTX 6000";
  p.gemm_flops = 2.0e12;      // PyTorch fp32 cuBLAS on large GEMM shapes
  p.elementwise_flops = 250e9;
  p.mem_bandwidth = 672e9;    // GDDR6
  p.dtype_bytes = 4;
  p.kernel_overhead_s = 10e-6;
  p.power_w = 260;            // board power; 172 W observed under load
  p.gemm_saturation_flops = 2e8;  // single-seq per-head GEMMs idle most SMs
  p.attn_pointwise_overhead_mult = 12;
  return p;
}

double PlatformOpSeconds(const PlatformModel& platform, const OpSpec& op,
                         double n) {
  return KernelSeconds(platform, op.kind, op.flops.Eval(n),
                       op.offchip_elems.Eval(n) * platform.dtype_bytes);
}

PlatformReport RunPlatform(const PlatformModel& platform,
                           const ModelConfig& model,
                           const std::vector<std::size_t>& lengths,
                           BatchPolicy policy, std::size_t pad_to) {
  const Batch batch = MakeBatch(lengths, policy, 4, pad_to);
  const auto ops = EncoderOps(model.encoder, AttentionMode::kDense);
  const double layers = static_cast<double>(model.layers);

  PlatformReport rep;

  // One batched kernel per operator per layer: FLOPs and traffic sum over
  // the (padded) batch; the launch overhead is paid once per kernel (per
  // head for the attention pointwise kernels).
  for (const auto& op : ops) {
    double flops = 0;
    double bytes = 0;
    for (std::size_t n : batch.effective_lengths) {
      flops += op.flops.Eval(static_cast<double>(n));
      bytes += op.offchip_elems.Eval(static_cast<double>(n)) *
               platform.dtype_bytes;
    }
    const double t = KernelSeconds(platform, op.kind, flops, bytes);
    rep.latency_s += t * layers;
    if (op.in_attention) rep.attention_latency_s += t * layers;
    rep.computed_flops += flops * layers;
  }
  for (std::size_t n : batch.original_lengths) {
    rep.useful_dense_flops += layers * TotalFlops(ops, static_cast<double>(n));
  }
  return rep;
}

}  // namespace latte
