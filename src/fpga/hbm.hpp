#pragma once
// HBM channel model for the Alveo U280.
//
// The board exposes 32 pseudo-channels (PC0-31, Fig 2(a)) of ~14.4 GB/s
// each; only SLR0 reaches them directly.  Streams (weight fetch per stage,
// activation in/out, the Top-k index/value round trip) are bound to whole
// channels at design time, so a stage's sustainable bandwidth is an
// integer number of channels times the per-channel effective rate -- not an
// arbitrary fraction of the aggregate.  The allocator below distributes
// channels across stages proportionally to their traffic demand (largest
// remainder), guaranteeing at least one channel to any stage that moves
// data.

#include <cstddef>
#include <span>

#include "fpga/resources.hpp"

namespace latte {

/// Per-channel effective bandwidth in bytes/s.
double HbmChannelBandwidth(const FpgaSpec& spec);

/// Splits `spec.hbm_channels` whole channels across streams proportionally
/// to `demand_bytes` (largest-remainder apportionment), writing stream i's
/// channels to out[i]; it allocates nothing, so a batch price can call it.
/// Streams with zero demand get zero channels; every stream with positive
/// demand gets at least one.  Throws if positive-demand streams outnumber
/// channels, on a negative demand, and if `out` and `demand_bytes` differ
/// in size.
void ApportionChannels(const FpgaSpec& spec,
                       std::span<const double> demand_bytes,
                       std::span<std::size_t> out);

/// Sustainable bandwidth of a stream holding `channels` channels.
double StreamBandwidth(const FpgaSpec& spec, std::size_t channels);

}  // namespace latte
