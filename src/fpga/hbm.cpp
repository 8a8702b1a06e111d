#include "fpga/hbm.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace latte {

double HbmChannelBandwidth(const FpgaSpec& spec) {
  return spec.SustainedHbm() / static_cast<double>(spec.hbm_channels);
}

void ApportionChannels(const FpgaSpec& spec,
                       std::span<const double> demand_bytes,
                       std::span<std::size_t> out) {
  if (out.size() != demand_bytes.size()) {
    throw std::invalid_argument(
        "ApportionChannels: output and demand sizes differ");
  }
  const std::size_t total = spec.hbm_channels;
  std::fill(out.begin(), out.end(), std::size_t{0});

  double demand_sum = 0;
  std::size_t active = 0;
  for (double d : demand_bytes) {
    if (d < 0) {
      throw std::invalid_argument("ApportionChannels: negative demand");
    }
    if (d > 0) {
      ++active;
      demand_sum += d;
    }
  }
  if (active == 0) return;
  if (active > total) {
    throw std::invalid_argument(
        "ApportionChannels: more active streams than channels");
  }

  // Stream i's exact proportional share, and its floor of at least 1.
  auto exact = [&](std::size_t i) {
    return static_cast<double>(total) * demand_bytes[i] / demand_sum;
  };
  auto floor_share = [](double e) {
    return std::max<std::size_t>(1, static_cast<std::size_t>(e));
  };
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < demand_bytes.size(); ++i) {
    if (demand_bytes[i] <= 0) continue;
    out[i] = floor_share(exact(i));
    assigned += out[i];
  }
  // The fraction stream i's floor dropped, recomputed rather than stored;
  // -1 once the stream has taken its extra channel (or moves no data).
  auto remainder = [&](std::size_t i) {
    if (!(demand_bytes[i] > 0)) return -1.0;
    const double e = exact(i);
    return out[i] == floor_share(e) ? e - std::floor(e) : -1.0;
  };
  // Hand out any remaining channels by largest remainder; claw back from
  // the smallest remainders if the at-least-one rule over-assigned.
  while (assigned < total) {
    std::size_t best = 0;
    double best_r = -1;
    for (std::size_t i = 0; i < out.size(); ++i) {
      const double r = remainder(i);
      if (r > best_r) {
        best_r = r;
        best = i;
      }
    }
    ++out[best];
    ++assigned;
  }
  while (assigned > total) {
    // Take from the stream with the most channels (never below 1).
    std::size_t victim = 0;
    std::size_t most = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (out[i] > most) {
        most = out[i];
        victim = i;
      }
    }
    if (most <= 1) break;  // cannot shrink further
    --out[victim];
    --assigned;
  }
}

double StreamBandwidth(const FpgaSpec& spec, std::size_t channels) {
  return HbmChannelBandwidth(spec) * static_cast<double>(channels);
}

}  // namespace latte
