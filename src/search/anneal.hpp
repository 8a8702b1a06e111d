#pragma once
// AnnealingSearch: parallel simulated-annealing chains over the design
// space.
//
// The loop is SET's `tries` idiom: several independent chains, each a
// geometric-cooling Metropolis walk, run concurrently and the best
// endpoint wins.  Chains never communicate, so the result is a pure
// function of (evaluator, config): chain k's walk is driven by an
// Rng seeded from (seed, k) alone, the merge is in chain order, and the
// acceptance rule uses a portable exp() -- identical output at ANY thread
// count, on any host.
//
// Invalid mutations are part of the design: MutateDesign may propose an
// over-budget or otherwise out-of-space design, CheckInSpace (the unified
// validators plus the space's own bounds) rejects it, and the chain counts
// it and moves on.  The validators ARE the feasibility oracle.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "search/evaluator.hpp"

namespace latte::search {

/// Geometric decay of the temperature per step.  The schedule starts at
/// the chain's initial cost (a move twice as bad as the start is accepted
/// with probability 1/e at step 0) and never drops below 1e-12.
inline constexpr double kCooling = 0.96;

/// Annealing fan-out.
struct AnnealingConfig {
  std::size_t chains = 4;  ///< independent restarts (SET's `tries`)
  std::size_t steps = 200;  ///< proposals per chain
  std::uint64_t seed = 1;
  std::size_t threads = 0;  ///< chain-pool width; 0 = hardware
};

/// Per-chain accounting.
struct ChainStats {
  std::size_t chain = 0;
  std::size_t proposed = 0;  ///< mutations drawn
  std::size_t invalid = 0;   ///< rejected by CheckInSpace or the evaluator
  std::size_t accepted = 0;  ///< moves taken
  std::size_t uphill = 0;    ///< accepted cost-increasing moves
  double best_cost = 0;      ///< best valid cost the chain saw (+inf: none)
};

/// One point of the Pareto front over (p99 down, throughput up, energy
/// down).
struct ParetoEntry {
  DesignPoint point;
  DesignScore score;
};

/// Everything a search run produces.
struct SearchResult {
  DesignPoint best;
  DesignScore best_score;     ///< valid == false when no chain found one
  std::size_t best_chain = 0;
  std::vector<ChainStats> chains;
  /// Non-dominated evaluated designs, deduplicated, deterministically
  /// ordered by (p99, -throughput, energy, serialized design).
  std::vector<ParetoEntry> pareto;
  std::size_t evaluations = 0;  ///< evaluator calls across all chains
};

/// exp(x) for x <= 0 with platform-stable results (floor + ldexp + a
/// fixed-degree Taylor kernel -- no libm exp, whose last-bit rounding
/// varies across implementations and would fork SA walks between hosts).
double PortableExp(double x);

/// Runs `cfg.chains` independent annealing chains over the design space
/// and merges their results.  Deterministic in (evaluator, cfg) at any
/// `threads` value.
SearchResult AnnealSearch(const DesignEvaluator& evaluator,
                          const AnnealingConfig& cfg);

}  // namespace latte::search
