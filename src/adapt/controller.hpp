#pragma once
// SLO-driven admission/degradation controller (the adaptive serving layer).
//
// Under overload a fixed-top-k engine has exactly one lever: reject.  The
// paper's accelerator has a better one -- attention sparsity is a tunable
// accuracy/latency trade -- so this controller closes the loop between
// metrics/fidelity and the serving engine *online*: it watches queue depth
// and rolling p99 against a target SLO and walks a ladder of service tiers
//
//   full top-k -> sparser top-k -> cheap high-sparsity first pass that
//   escalates uncertain results to the full model -> admission shed
//   (the bounded queue) as the last resort,
//
// while a planned-accuracy budget keeps the stream mean above a configured
// accuracy floor.
//
// Determinism discipline (same as search/anneal): the controller runs in
// virtual time only -- tier transitions happen at fixed epoch boundaries
// (k * epoch_s), at most one step per epoch, inside hysteresis bands -- so
// a replayed trace produces bit-identical tier decisions, reports and
// outputs at any BatchRunner thread count.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "config/check.hpp"
#include "obs/trace.hpp"

namespace latte {

/// One rung of the degradation ladder.
struct ServiceTier {
  std::size_t top_k = 30;  ///< sparse attention candidates at this tier
  /// Uncertain results of this tier (low candidate-selector margin) are
  /// re-executed at tier 0.  Only the last tier may escalate: it is the
  /// "cheap first pass" rung, priced below every fixed baseline, whose
  /// occasional full-model re-runs buy back accuracy.
  bool escalate = false;
  /// Expected fidelity of this tier against the dense reference (mean
  /// output cosine; see metrics/fidelity BuildTopKAccuracyTable).  Drives
  /// the accuracy-floor budget and ServingReport::mean_accuracy.
  double accuracy = 1.0;
};

/// Knobs of the adaptive serving layer.  Disabled by default: an engine
/// with `enabled == false` is bit-identical to a pre-adaptive one.
struct AdaptiveServingConfig {
  bool enabled = false;
  /// Target p99 latency.  The rolling p99 is compared against it to form
  /// the latency half of the pressure signal.
  double slo_p99_s = 0.2;
  /// Floor on the running mean of planned tier accuracies.  A request is
  /// only assigned a degraded tier while the stream mean stays at or above
  /// the floor; otherwise the assignment is capped at a higher-fidelity
  /// tier (graceful degradation never silently under-runs the floor).
  /// 0 disables the budget.
  double accuracy_floor = 0.0;
  /// Controller update period (virtual seconds).  Tier transitions happen
  /// only at multiples of this epoch, at most one step per epoch.
  double epoch_s = 0.05;
  /// Hysteresis bands on the pressure signal
  ///   pressure = max(queue_depth / queue_ref, rolling_p99 / slo_p99_s):
  /// above `high_band` the controller degrades one tier, below `low_band`
  /// it recovers one tier, in between it holds -- so a pressure sitting at
  /// a band edge cannot flap the tier.
  double low_band = 0.5;
  double high_band = 1.0;
  /// Queue depth that counts as pressure 1.0.
  std::size_t queue_ref = 16;
  /// Rolling window (completed requests) the p99 is computed over.
  std::size_t latency_window = 64;
  /// Escalation threshold: a first-pass request whose mean normalized
  /// candidate-selector margin falls below this is re-run at tier 0.
  double escalate_margin = 0.35;
  /// Quantization width of the escalation probe (1 or 4; 4 resolves
  /// boundary ties far better, see core/candidate_selector.hpp).
  int escalate_bits = 4;
  /// Query rows sampled by the escalation probe (caps its cost on long
  /// sequences; the probe is deterministic either way).
  std::size_t escalate_rows = 64;
  /// The degradation ladder, tier 0 first.  Tier 0 is the full-quality
  /// service (its top_k must match the engine's inference config);
  /// top_k strictly decreases along the ladder.
  std::vector<ServiceTier> tiers;
};

/// Names every illegal field (empty ladder, non-decreasing top_k,
/// escalation anywhere but the last tier, inverted hysteresis bands,
/// floor above tier-0 accuracy, ...); empty means legal.  Checked only
/// when `enabled` (a disabled config is inert and always legal).
ConfigIssues CheckAdaptiveServingConfig(const AdaptiveServingConfig& cfg);

/// The deterministic tier controller.  The owner (serve/engine) drives it
/// entirely in virtual time: RecordLatency() on every request completion,
/// AdvanceEpoch() at each epoch boundary, level() when assigning a tier.
class AdaptiveController {
 public:
  explicit AdaptiveController(const AdaptiveServingConfig& cfg);

  /// The next epoch boundary (virtual seconds) at which the controller
  /// wants an AdvanceEpoch() call.
  double next_epoch_s() const { return epoch_next_; }

  /// Processes one epoch boundary: recomputes pressure from the queue
  /// depth and the rolling p99, steps the level by at most one inside the
  /// hysteresis bands, and arms the next boundary.
  void AdvanceEpoch(std::size_t queue_depth);

  /// Feeds one completed request's end-to-end virtual latency into the
  /// rolling window.
  void RecordLatency(double latency_s);

  /// Current ladder level (0 = full quality).
  std::size_t level() const { return level_; }

  /// Rolling p99 over the window (0 while empty).
  double rolling_p99_s() const;

  /// The pressure signal a boundary at the current state would see.
  double Pressure(std::size_t queue_depth) const;

  /// Returns to the initial state (level 0, empty window, first epoch) --
  /// the per-stream reset, mirroring the engine's ResetStream().
  void Reset();

  /// Records a kEpoch instant (boundary time, level after stepping) on
  /// `track` at every AdvanceEpoch().  Null detaches; the owning engine
  /// wires this alongside its own tracer.
  void SetTracer(obs::Tracer* tracer, std::uint32_t track) {
    tracer_ = tracer;
    track_ = track;
  }

 private:
  AdaptiveServingConfig cfg_;
  obs::Tracer* tracer_ = nullptr;
  std::uint32_t track_ = 0;
  std::uint64_t epoch_seq_ = 0;  ///< boundaries processed this stream
  std::size_t level_ = 0;
  double epoch_next_ = 0;
  std::vector<double> window_;  ///< ring buffer of recent latencies
  std::size_t window_pos_ = 0;
  std::size_t window_count_ = 0;
};

}  // namespace latte
