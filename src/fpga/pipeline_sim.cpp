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

namespace {

// The pipeline recurrence behind both entry points.  It returns the
// makespan; `res`, when given, also receives every job and each stage's
// busy seconds.
double RunPipeline(const std::vector<std::size_t>& lengths,
                   std::span<const StageTimingModel> stages,
                   const PipelineSimConfig& cfg, ScheduleResult* res) {
  if (stages.empty()) {
    throw std::invalid_argument("SimulatePipeline: no stages");
  }
  if (cfg.layers == 0) {
    throw std::invalid_argument("SimulatePipeline: layers must be >= 1");
  }
  const std::size_t B = lengths.size();
  const std::size_t S = stages.size();

  // One buffer holds the recurrence's state:
  //   dur[i * S + s]     T_s(len_i), the same in every layer, so each
  //                      (sequence, stage) is timed once;
  //   layer_done[i]      finish of sequence i's previous layer;
  //   stage_free[s]      stage s is Working until then and Idle after;
  //   buffer_drained[s]  without double buffers: finish time of the
  //                      *consumer* of the previous item that went through
  //                      stage s (the buffer drains when stage s+1 ends).
  // Each thread reuses its buffer, so a call allocates nothing once its
  // thread has run a batch this large.
  thread_local std::vector<double> state;
  state.assign(B * S + B + 2 * S, 0.0);
  double* const dur = state.data();
  double* const layer_done = dur + B * S;
  double* const stage_free = layer_done + B;
  double* const buffer_drained = stage_free + S;
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

  if (res != nullptr) {
    res->stage_busy.assign(S, 0.0);
    res->jobs.reserve(B * cfg.layers * S);
  }
  double makespan = 0.0;
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
        if (res != nullptr) {
          res->jobs.push_back({i, l, s, start, end});
          res->stage_busy[s] += dur[i * S + s];
        }
        stage_free[s] = end;
        if (!cfg.double_buffer && s > 0) {
          // Consuming this item drains stage s-1's output buffer.
          buffer_drained[s - 1] = end;
        }
        makespan = std::max(makespan, end);
        ready = end;
      }
      layer_done[i] = ready;
    }
  }
  return makespan;
}

}  // namespace

ScheduleResult SimulatePipeline(const std::vector<std::size_t>& lengths,
                                std::span<const StageTimingModel> stages,
                                const PipelineSimConfig& cfg) {
  ScheduleResult res;
  res.makespan = RunPipeline(lengths, stages, cfg, &res);
  return res;
}

double PipelineMakespan(const std::vector<std::size_t>& lengths,
                        std::span<const StageTimingModel> stages,
                        const PipelineSimConfig& cfg) {
  return RunPipeline(lengths, stages, cfg, nullptr);
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
