#pragma once
// The design space: the legal knob menus and the seeded move operators.
//
// The space is menu-shaped on purpose: every knob draws from a small,
// explicitly enumerated set of values (SET's schedule-tree search has the
// same structure -- moves swap between enumerable alternatives, not over
// a continuum).  That keeps three properties the SA driver leans on:
//
//   * Bounded mutation.  A move changes exactly one thing -- one knob of
//     one replica, the fleet size by one, the router, or the cache -- and
//     lands on a menu value, so a chain can only random-walk inside the
//     enumerated space.
//   * Determinism.  Sample/Mutate consume randomness from a caller-owned
//     Rng only; equal seeds give equal walks on any host or thread count.
//   * Honest comparisons.  A backend-slot budget (sum over replicas of
//     workers x gang size) caps the hardware a design may provision, so
//     the search cannot "win" by simply buying more devices than the
//     hand-tuned baselines it is gated against.  Over-budget proposals
//     are *produced* by Mutate and rejected by CheckInSpace -- that is
//     the unified-validator rejection path the SA loop counts.

#include <cstddef>

#include "search/design_point.hpp"
#include "tensor/rng.hpp"

namespace latte::search {

/// The fleet-size cap of the space.  The space itself -- the menus every
/// knob draws from, the fleet-size floor and the deployment's fabric --
/// is fixed in design_space.cpp: it describes one small NoC-class
/// deployment, and the search tunes the design, not the datacenter.
inline constexpr std::size_t kMaxReplicas = 4;
/// Cap on BackendSlots(dp): total provisioned devices (a sharded gang of
/// degree d behind w workers provisions w*d).
inline constexpr std::size_t kMaxBackendSlots = 6;

/// Total provisioned backend devices of a design: sum over replicas of
/// workers x (sharded ? degree : 1).
std::size_t BackendSlots(const DesignPoint& dp);

/// The one adaptive block the space admits for a replica with this
/// `top_k`: a three-rung ladder (full -> half -> quarter sparsity, the
/// last rung escalating uncertain results) with fixed accuracy labels and
/// the default controller bands.  Keeping the ladder canonical keeps the
/// space enumerable -- a move toggles the block or steps the SLO, never
/// free-form tier edits.
AdaptiveServingConfig CanonicalAdaptiveLadder(std::size_t top_k,
                                              double slo_p99_s);

/// CheckDesignPoint plus the space's own bounds: fleet size range, the
/// backend-slot budget, and menu membership of every knob.  Empty means
/// the design is legal *and* inside the space.
ConfigIssues CheckInSpace(const DesignPoint& dp);

/// Draws a uniform design from the space, then deterministically repairs
/// it to the backend-slot budget (shrinking workers, then gangs, then the
/// fleet).  The result always passes CheckInSpace.
DesignPoint SampleDesign(Rng& rng);

/// One bounded move: grow/shrink the fleet by one replica, step one knob
/// of one replica to a neighboring menu value, re-draw the router policy,
/// or step the cache.  The result stays menu-valued but may exceed the
/// slot budget -- callers reject via CheckInSpace (the SA loop's invalid-
/// mutation path).  Never mutates `dp` in place.
DesignPoint MutateDesign(const DesignPoint& dp, Rng& rng);

}  // namespace latte::search
