#include "fpga/pipeline_sim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace latte {

namespace {

// Seconds from each stage's first start to its last finish.
std::vector<double> ActiveWindows(const ScheduleResult& res) {
  std::vector<double> first(res.stage_busy.size(),
                            std::numeric_limits<double>::infinity());
  std::vector<double> last(res.stage_busy.size(), 0.0);
  for (const auto& j : res.jobs) {
    first[j.stage] = std::min(first[j.stage], j.start);
    last[j.stage] = std::max(last[j.stage], j.end);
  }
  for (std::size_t s = 0; s < last.size(); ++s) last[s] -= first[s];
  return last;
}

}  // namespace

std::vector<double> ScheduleResult::StageUtilization() const {
  std::vector<double> util = ActiveWindows(*this);
  for (std::size_t s = 0; s < util.size(); ++s) {
    util[s] = util[s] > 0 ? stage_busy[s] / util[s] : 1.0;
  }
  return util;
}

double ScheduleResult::SerialTime() const {
  double acc = 0.0;
  for (const auto& j : jobs) acc += j.end - j.start;
  return acc;
}

double ScheduleResult::BubbleTime() const {
  const std::vector<double> window = ActiveWindows(*this);
  double acc = 0.0;
  for (std::size_t s = 0; s < window.size(); ++s) {
    if (window[s] > 0) acc += window[s] - stage_busy[s];
  }
  return acc;
}

ScheduleResult SimulatePipeline(const std::vector<std::size_t>& lengths,
                                const std::vector<StageTimingModel>& stages,
                                const PipelineSimConfig& cfg) {
  if (stages.empty()) {
    throw std::invalid_argument("SimulatePipeline: no stages");
  }
  if (cfg.layers == 0) {
    throw std::invalid_argument("SimulatePipeline: layers must be >= 1");
  }
  const std::size_t B = lengths.size();
  const std::size_t S = stages.size();

  // T_s(len_i) is the same in every layer, so each (sequence, stage) is
  // timed once.
  std::vector<double> dur(B * S);
  for (std::size_t i = 0; i < B; ++i) {
    for (std::size_t s = 0; s < S; ++s) {
      const double t = stages[s].Seconds(static_cast<double>(lengths[i]));
      if (!std::isfinite(t) || t < 0) {
        throw std::invalid_argument(
            "SimulatePipeline: stage " + std::to_string(s) + " takes " +
            std::to_string(t) + " s at length " + std::to_string(lengths[i]) +
            " (must be finite and >= 0)");
      }
      dur[i * S + s] = t;
    }
  }

  ScheduleResult res;
  res.stage_busy.assign(S, 0.0);
  res.jobs.reserve(B * cfg.layers * S);
  // Stage s is Working until stage_free[s] and Idle from then on.
  std::vector<double> stage_free(S, 0.0);
  // Without double buffers: finish time of the *consumer* of the previous
  // item that went through stage s (the buffer drains when stage s+1 ends).
  std::vector<double> buffer_drained(S, 0.0);
  // Per-sequence finish of the previous layer's last stage.
  std::vector<double> layer_done(B, 0.0);

  for (std::size_t l = 0; l < cfg.layers; ++l) {
    for (std::size_t i = 0; i < B; ++i) {
      double ready = layer_done[i];
      for (std::size_t s = 0; s < S; ++s) {
        double start = std::max(ready, stage_free[s]);
        if (!cfg.double_buffer) {
          // Single buffer: stage s may not overwrite its output buffer
          // until the downstream stage consumed the previous item.
          start = std::max(start, buffer_drained[s]);
        }
        const double end = start + dur[i * S + s];
        res.jobs.push_back({i, l, s, start, end});
        res.stage_busy[s] += dur[i * S + s];
        stage_free[s] = end;
        if (!cfg.double_buffer && s > 0) {
          // Consuming this item drains stage s-1's output buffer.
          buffer_drained[s - 1] = end;
        }
        res.makespan = std::max(res.makespan, end);
        ready = end;
      }
      layer_done[i] = ready;
    }
  }
  return res;
}

std::string RenderGantt(const ScheduleResult& schedule, std::size_t stages,
                        std::size_t width) {
  if (schedule.jobs.empty() || stages == 0 || width == 0) return "";
  const double span = schedule.makespan;
  if (span <= 0) return "";
  static const char* kNames[] = {"MM|At-Sel", "At-Comp  ", "FdFwd    "};
  std::string out;
  for (std::size_t s = 0; s < stages; ++s) {
    std::string row(width, '.');
    for (const auto& j : schedule.jobs) {
      if (j.stage != s) continue;
      const auto b0 = static_cast<std::size_t>(j.start / span * width);
      auto b1 = static_cast<std::size_t>(std::ceil(j.end / span * width));
      b1 = std::min(b1, width);
      const char mark =
          static_cast<char>('1' + static_cast<char>(j.seq % 9));
      for (std::size_t b = b0; b < b1; ++b) row[b] = mark;
    }
    out += (s < 3 ? kNames[s] : "Stage    ");
    out += " |";
    out += row;
    out += "|\n";
  }
  return out;
}

}  // namespace latte
