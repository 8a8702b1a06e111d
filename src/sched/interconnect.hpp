#pragma once
// Interconnect cost model for tensor-parallel execution.
//
// When one encoder is sharded across N workers, every layer pays
// communication: all-gathers of activation slices (column-parallel
// linears), an all-reduce of partial sums (the row-parallel FFN2
// option) and a broadcast of the serially-normalized residual.  This
// model prices those collectives in virtual time so the serving twin can
// answer *where* sharding beats replication without executing tensors --
// the same NoC-flavored shape (per-hop latency, link bandwidth, DRAM
// spill for transfers that overflow on-chip buffering) the SET scheduler
// uses for inter-chiplet costs.
//
// Topology is a 1-D chain by default (worker i links to i+1) or a 2-D
// mesh when `mesh_cols` is set; collective times are ring-based:
// an all-gather is N-1 neighbor steps, an all-reduce is a reduce-scatter
// plus an all-gather (2(N-1) steps of 1/N-sized chunks).  Every quantity
// is a pure function of the configuration -- no wall clock, no state --
// so accounting sweeps stay byte-deterministic at any thread count.

#include <cstddef>

#include "config/check.hpp"

namespace latte {

/// Knobs of the interconnect cost model.
struct InterconnectConfig {
  double link_bytes_per_s = 100e9;  ///< per-link bandwidth (bytes/s)
  double hop_latency_s = 1e-6;      ///< fixed latency per traversed hop
  /// Mesh width: workers are placed row-major on a `mesh_cols`-wide 2-D
  /// mesh and distance is Manhattan.  0 keeps the 1-D chain (distance
  /// |i - j|).
  std::size_t mesh_cols = 0;
  /// Transfers larger than this spill through DRAM and additionally pay
  /// `dram_bytes_per_s`; 0 disables spilling (infinite on-chip buffers).
  std::size_t dram_spill_bytes = 0;
  double dram_bytes_per_s = 16e9;  ///< DRAM bandwidth charged on spills
};

/// Names every illegal field (non-positive or NaN bandwidths / hop
/// latency); empty means legal.
ConfigIssues CheckInterconnectConfig(const InterconnectConfig& cfg);

/// Prices point-to-point transfers and ring collectives on the configured
/// topology.  Stateless and deterministic: equal inputs give equal bits.
class InterconnectModel {
 public:
  InterconnectModel() : InterconnectModel(InterconnectConfig{}) {}
  /// Validates the configuration (throws std::invalid_argument).
  explicit InterconnectModel(const InterconnectConfig& cfg);

  const InterconnectConfig& config() const { return cfg_; }

  /// Hop distance between workers `a` and `b`: |a-b| on the chain,
  /// Manhattan distance on the row-major mesh.
  std::size_t Hops(std::size_t a, std::size_t b) const;

  /// Largest hop distance between ring neighbors (i, i+1 mod n) over the
  /// first `n` workers -- the step cost of ring collectives, dominated by
  /// the wrap-around link on a chain.
  std::size_t RingStepHops(std::size_t n) const;

  /// Seconds to move `bytes` across `hops` links: hop latency plus
  /// serialization at link bandwidth, plus the DRAM spill surcharge when
  /// the transfer exceeds the on-chip threshold.
  double TransferS(std::size_t bytes, std::size_t hops) const;

  /// Ring all-gather over `shards` workers, each contributing
  /// `bytes_per_shard`: shards-1 neighbor steps.  0 when shards <= 1.
  double AllGatherS(std::size_t shards, std::size_t bytes_per_shard) const;

  /// Ring all-reduce of a `bytes`-sized tensor over `shards` workers:
  /// reduce-scatter plus all-gather, 2(shards-1) steps of bytes/shards
  /// chunks.  0 when shards <= 1.
  double AllReduceS(std::size_t shards, std::size_t bytes) const;

  /// One-to-all broadcast of `bytes` to `shards` workers, priced as a
  /// single pipelined transfer to the farthest endpoint.  0 when
  /// shards <= 1.
  double BroadcastS(std::size_t shards, std::size_t bytes) const;

 private:
  InterconnectConfig cfg_;
};

}  // namespace latte
