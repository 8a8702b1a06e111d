#include "sched/interconnect.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace latte {
namespace {

bool PositiveFinite(double v) { return std::isfinite(v) && v > 0; }

}  // namespace

ConfigIssues CheckInterconnectConfig(const InterconnectConfig& cfg) {
  ConfigIssues issues;
  if (!PositiveFinite(cfg.link_bytes_per_s)) {
    AddIssue(issues, "link_bytes_per_s", "must be positive and finite");
  }
  if (!std::isfinite(cfg.hop_latency_s) || cfg.hop_latency_s < 0) {
    AddIssue(issues, "hop_latency_s", "must be non-negative and finite");
  }
  if (cfg.dram_spill_bytes > 0 && !PositiveFinite(cfg.dram_bytes_per_s)) {
    AddIssue(issues, "dram_bytes_per_s", "must be positive and finite");
  }
  return issues;
}

InterconnectModel::InterconnectModel(const InterconnectConfig& cfg)
    : cfg_(cfg) {
  ThrowOnIssues("InterconnectConfig", CheckInterconnectConfig(cfg_));
}

std::size_t InterconnectModel::Hops(std::size_t a, std::size_t b) const {
  if (cfg_.mesh_cols == 0) return a > b ? a - b : b - a;
  const std::size_t ra = a / cfg_.mesh_cols, ca = a % cfg_.mesh_cols;
  const std::size_t rb = b / cfg_.mesh_cols, cb = b % cfg_.mesh_cols;
  return (ra > rb ? ra - rb : rb - ra) + (ca > cb ? ca - cb : cb - ca);
}

std::size_t InterconnectModel::RingStepHops(std::size_t n) const {
  if (n <= 1) return 0;
  std::size_t worst = 0;
  for (std::size_t i = 0; i < n; ++i) {
    worst = std::max(worst, Hops(i, (i + 1) % n));
  }
  return worst;
}

double InterconnectModel::TransferS(std::size_t bytes,
                                    std::size_t hops) const {
  double s = static_cast<double>(hops) * cfg_.hop_latency_s +
             static_cast<double>(bytes) / cfg_.link_bytes_per_s;
  if (cfg_.dram_spill_bytes > 0 && bytes > cfg_.dram_spill_bytes) {
    s += static_cast<double>(bytes) / cfg_.dram_bytes_per_s;
  }
  return s;
}

double InterconnectModel::AllGatherS(std::size_t shards,
                                     std::size_t bytes_per_shard) const {
  if (shards <= 1) return 0;
  const std::size_t hops = RingStepHops(shards);
  return static_cast<double>(shards - 1) * TransferS(bytes_per_shard, hops);
}

double InterconnectModel::AllReduceS(std::size_t shards,
                                     std::size_t bytes) const {
  if (shards <= 1) return 0;
  const std::size_t hops = RingStepHops(shards);
  const std::size_t chunk = (bytes + shards - 1) / shards;
  return 2.0 * static_cast<double>(shards - 1) * TransferS(chunk, hops);
}

double InterconnectModel::BroadcastS(std::size_t shards,
                                     std::size_t bytes) const {
  if (shards <= 1) return 0;
  std::size_t farthest = 0;
  for (std::size_t i = 1; i < shards; ++i) {
    farthest = std::max(farthest, Hops(0, i));
  }
  return TransferS(bytes, farthest);
}

}  // namespace latte
