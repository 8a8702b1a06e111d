#include "obs/trace.hpp"

#include <algorithm>
#include <stdexcept>

namespace latte::obs {

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kAdmit:
      return "admit";
    case SpanKind::kReject:
      return "reject";
    case SpanKind::kCacheHit:
      return "cache_hit";
    case SpanKind::kCacheCoalesce:
      return "cache_coalesce";
    case SpanKind::kForm:
      return "form";
    case SpanKind::kQueueWait:
      return "queue_wait";
    case SpanKind::kService:
      return "service";
    case SpanKind::kComplete:
      return "complete";
    case SpanKind::kEscalate:
      return "escalate";
    case SpanKind::kEpoch:
      return "epoch";
    case SpanKind::kStage:
      return "stage";
  }
  return "unknown";
}

ConfigIssues CheckTraceConfig(const TraceConfig& cfg) {
  ConfigIssues issues;
  if (!cfg.enabled) return issues;
  if (cfg.buffer_capacity == 0) {
    AddIssue(issues, "buffer_capacity",
             "must be >= 1 (a zero-capacity buffer records nothing and "
             "every event would count as dropped; disable tracing instead)");
  }
  return issues;
}

Tracer::Tracer(const TraceConfig& cfg) : cfg_(cfg) {
  ThrowOnIssues("TraceConfig", CheckTraceConfig(cfg_));
}

void Tracer::RegisterTrack(std::uint32_t track, std::string name) {
  auto it = tracks_.find(track);
  if (it == tracks_.end()) {
    tracks_.emplace(track, Track{std::move(name),
                                 TraceBuffer(cfg_.buffer_capacity)});
  } else {
    it->second.name = std::move(name);
  }
}

void Tracer::Record(const TraceEvent& e) {
  auto it = tracks_.find(e.track);
  if (it == tracks_.end()) {
    throw std::invalid_argument(
        "Tracer::Record: track " + std::to_string(e.track) +
        " was never registered (tracks must be registered at attach time, "
        "before any recording)");
  }
  it->second.buffer.Record(e);
}

std::vector<TraceEvent> Tracer::Merged() const {
  std::vector<TraceEvent> merged;
  std::size_t total = 0;
  for (const auto& [track, t] : tracks_) total += t.buffer.events().size();
  merged.reserve(total);
  // std::map iterates in track-id order, so same-track runs land in
  // program order and the stable sort below never reorders them.
  for (const auto& [track, t] : tracks_) {
    const auto& events = t.buffer.events();
    merged.insert(merged.end(), events.begin(), events.end());
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.begin_s != b.begin_s) return a.begin_s < b.begin_s;
                     return a.track < b.track;
                   });
  return merged;
}

std::uint64_t Tracer::total_dropped() const {
  std::uint64_t dropped = 0;
  for (const auto& [track, t] : tracks_) dropped += t.buffer.dropped();
  return dropped;
}

std::vector<std::pair<std::uint32_t, std::string>> Tracer::tracks() const {
  std::vector<std::pair<std::uint32_t, std::string>> out;
  out.reserve(tracks_.size());
  for (const auto& [track, t] : tracks_) out.push_back({track, t.name});
  return out;
}

const TraceBuffer* Tracer::buffer(std::uint32_t track) const {
  auto it = tracks_.find(track);
  return it == tracks_.end() ? nullptr : &it->second.buffer;
}

void Tracer::Clear() {
  for (auto& [track, t] : tracks_) t.buffer.Clear();
}

}  // namespace latte::obs
