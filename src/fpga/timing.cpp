#include "fpga/timing.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

#include "fpga/hbm.hpp"

namespace latte {

namespace {

/// The three roofs a stage's time is the largest of, in seconds: DSP
/// compute, LUT fabric and HBM memory, in that order.
std::array<double, 3> Roofs(const StageTimingModel& m, double n) {
  return {m.flops.Eval(n) / (2.0 * m.dsp * m.freq_hz),
          m.lut_ops.Eval(n) / (m.lut_lanes * m.freq_hz),
          m.offchip_bytes.Eval(n) / m.hbm_bytes_per_s};
}

}  // namespace

double StageTimingModel::Seconds(double n) const {
  const auto [t_dsp, t_lut, t_mem] = Roofs(*this, n);
  return std::max({t_dsp, t_lut, t_mem});
}

const char* StageTimingModel::BindingRoof(double n) const {
  static constexpr std::array<const char*, 3> kNames = {"DSP", "LUT", "HBM"};
  const auto roofs = Roofs(*this, n);
  return kNames[static_cast<std::size_t>(
      std::max_element(roofs.begin(), roofs.end()) - roofs.begin())];
}

std::vector<StageTimingModel> PartitionStages(const std::vector<OpSpec>& ops) {
  // Each operator's polynomials join the stage its hint names, summed in
  // dataflow order.
  std::vector<StageTimingModel> models(kMaxStages);
  std::array<bool, kMaxStages> named{};
  for (const auto& op : ops) {
    if (op.stage_hint < 1 ||
        op.stage_hint > static_cast<int>(kMaxStages)) {
      throw std::out_of_range("PartitionStages: stage_hint outside 1.." +
                              std::to_string(kMaxStages));
    }
    const auto k = static_cast<std::size_t>(op.stage_hint - 1);
    named[k] = true;
    auto& m = models[k];
    m.flops = m.flops + op.flops;
    m.lut_ops = m.lut_ops + op.lut_ops;
    m.offchip_bytes = m.offchip_bytes + op.offchip_elems;
  }
  // Stages no operator names are dropped (the attention-only list has two).
  for (std::size_t k = models.size(); k-- > 0;) {
    if (!named[k]) models.erase(models.begin() + static_cast<long>(k));
  }
  return models;
}

void SizeStages(std::span<StageTimingModel> models, const FpgaSpec& spec,
                double s_avg) {
  if (s_avg <= 0) {
    throw std::invalid_argument("SizeStages: s_avg must be positive");
  }
  if (models.size() > kMaxStages) {
    throw std::invalid_argument("SizeStages: more than " +
                                std::to_string(kMaxStages) + " stages");
  }
  // HBM pseudo-channels are bound to stages as whole units at design time,
  // by traffic at s_avg.
  double total_flops = 0, total_lut = 0;
  std::array<double, kMaxStages> demand{};
  for (std::size_t k = 0; k < models.size(); ++k) {
    const auto& m = models[k];
    total_flops += m.flops.Eval(s_avg);
    total_lut += m.lut_ops.Eval(s_avg);
    demand[k] = m.offchip_bytes.Eval(s_avg);
  }
  std::array<std::size_t, kMaxStages> channels{};
  ApportionChannels(spec, std::span(demand).first(models.size()),
                    std::span(channels).first(models.size()));

  for (std::size_t k = 0; k < models.size(); ++k) {
    auto& m = models[k];
    m.freq_hz = spec.freq_hz;
    const double fshare =
        total_flops > 0 ? m.flops.Eval(s_avg) / total_flops : 0.0;
    const double lshare =
        total_lut > 0 ? m.lut_ops.Eval(s_avg) / total_lut : 0.0;
    m.dsp = std::max(1.0, spec.dsp * fshare);
    m.lut_lanes = std::max(1.0, (spec.lut / kLutsPerLane) * lshare);
    m.hbm_bytes_per_s = std::max(1.0, StreamBandwidth(spec, channels[k]));
  }
}

std::vector<StageTimingModel> BuildStageTimings(
    const std::vector<OpSpec>& ops, const FpgaSpec& spec, double s_avg) {
  std::vector<StageTimingModel> models = PartitionStages(ops);
  SizeStages(models, spec, s_avg);
  return models;
}

}  // namespace latte
