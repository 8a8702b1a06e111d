#include "adapt/controller.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/percentiles.hpp"

namespace latte {

ConfigIssues CheckAdaptiveServingConfig(const AdaptiveServingConfig& cfg) {
  ConfigIssues issues;
  if (!cfg.enabled) return issues;
  if (!(cfg.slo_p99_s > 0) || !std::isfinite(cfg.slo_p99_s)) {
    AddIssue(issues, "slo_p99_s", "must be a positive, finite latency target");
  }
  if (!(cfg.epoch_s > 0) || !std::isfinite(cfg.epoch_s)) {
    AddIssue(issues, "epoch_s",
             "must be a positive, finite update period (the fixed epoch is "
             "what makes tier decisions replayable)");
  }
  if (std::isnan(cfg.low_band) || cfg.low_band < 0) {
    AddIssue(issues, "low_band", "must be >= 0");
  }
  if (!(cfg.high_band > cfg.low_band) || !std::isfinite(cfg.high_band)) {
    AddIssue(issues, "high_band",
             "must be finite and strictly above low_band (the hysteresis "
             "gap is what prevents tier flapping)");
  }
  if (cfg.queue_ref == 0) {
    AddIssue(issues, "queue_ref",
             "must be >= 1 (queue depth is normalized by it)");
  }
  if (cfg.latency_window == 0) {
    AddIssue(issues, "latency_window", "must be >= 1");
  }
  if (std::isnan(cfg.escalate_margin) || cfg.escalate_margin < 0 ||
      cfg.escalate_margin > 1) {
    AddIssue(issues, "escalate_margin",
             "must be in [0, 1] (a normalized selector margin)");
  }
  if (cfg.escalate_bits != 1 && cfg.escalate_bits != 4) {
    AddIssue(issues, "escalate_bits",
             "must be 1 or 4 (the selector's quantization widths)");
  }
  if (cfg.escalate_rows == 0) {
    AddIssue(issues, "escalate_rows", "must be >= 1");
  }
  if (cfg.tiers.empty()) {
    AddIssue(issues, "tiers", "must name at least one service tier");
    return issues;
  }
  for (std::size_t i = 0; i < cfg.tiers.size(); ++i) {
    const ServiceTier& t = cfg.tiers[i];
    const std::string prefix = "tiers[" + std::to_string(i) + "]";
    if (t.top_k == 0) {
      AddIssue(issues, prefix + ".top_k",
               "must be >= 1 (0 selects no attention candidates)");
    }
    if (i > 0 && t.top_k >= cfg.tiers[i - 1].top_k) {
      AddIssue(issues, prefix + ".top_k",
               "must strictly decrease along the ladder (a degraded tier "
               "must be sparser than the one above it)");
    }
    if (!(t.accuracy > 0) || t.accuracy > 1 || std::isnan(t.accuracy)) {
      AddIssue(issues, prefix + ".accuracy", "must be in (0, 1]");
    }
    if (i > 0 && t.accuracy > cfg.tiers[i - 1].accuracy) {
      AddIssue(issues, prefix + ".accuracy",
               "must be non-increasing along the ladder (sparser attention "
               "cannot be more faithful)");
    }
    if (t.escalate && i + 1 != cfg.tiers.size()) {
      AddIssue(issues, prefix + ".escalate",
               "only the last tier may escalate (it is the cheap first-pass "
               "rung; tier 0 is already the full model)");
    }
  }
  if (cfg.tiers.front().escalate) {
    AddIssue(issues, "tiers[0].escalate",
             "tier 0 is the full-quality service and cannot escalate to "
             "itself");
  }
  if (std::isnan(cfg.accuracy_floor) || cfg.accuracy_floor < 0) {
    AddIssue(issues, "accuracy_floor", "must be >= 0 (0 disables the budget)");
  } else if (cfg.accuracy_floor > 0 && !cfg.tiers.empty() &&
             cfg.accuracy_floor > cfg.tiers.front().accuracy) {
    AddIssue(issues, "accuracy_floor",
             "must not exceed tier 0's accuracy (even the full-quality tier "
             "could not meet it)");
  }
  return issues;
}

AdaptiveController::AdaptiveController(const AdaptiveServingConfig& cfg)
    : cfg_(cfg) {
  ThrowOnIssues("AdaptiveServingConfig", CheckAdaptiveServingConfig(cfg_));
  Reset();
}

void AdaptiveController::Reset() {
  level_ = 0;
  epoch_next_ = cfg_.epoch_s;
  epoch_seq_ = 0;
  window_.assign(cfg_.latency_window, 0.0);
  window_pos_ = 0;
  window_count_ = 0;
}

void AdaptiveController::RecordLatency(double latency_s) {
  window_[window_pos_] = latency_s;
  window_pos_ = (window_pos_ + 1) % window_.size();
  window_count_ = std::min(window_count_ + 1, window_.size());
}

double AdaptiveController::rolling_p99_s() const {
  return obs::PercentileOfWindow(window_, window_count_, 0.99);
}

double AdaptiveController::Pressure(std::size_t queue_depth) const {
  const double queue_pressure = static_cast<double>(queue_depth) /
                                static_cast<double>(cfg_.queue_ref);
  const double latency_pressure = rolling_p99_s() / cfg_.slo_p99_s;
  return std::max(queue_pressure, latency_pressure);
}

void AdaptiveController::AdvanceEpoch(std::size_t queue_depth) {
  const double pressure = Pressure(queue_depth);
  if (pressure > cfg_.high_band) {
    if (level_ + 1 < cfg_.tiers.size()) ++level_;
  } else if (pressure < cfg_.low_band) {
    if (level_ > 0) --level_;
  }
  if (tracer_ != nullptr) {
    obs::TraceEvent e;
    e.kind = obs::SpanKind::kEpoch;
    e.begin_s = e.end_s = epoch_next_;
    e.id = epoch_seq_;
    e.arg = static_cast<std::int64_t>(level_);
    e.track = track_;
    tracer_->Record(e);
  }
  ++epoch_seq_;
  epoch_next_ += cfg_.epoch_s;
}

}  // namespace latte
