#include "obs/analyze.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>

#include "obs/json_writer.hpp"
#include "obs/percentiles.hpp"
#include "serve/report.hpp"

namespace latte::obs {
namespace {

const char* kStageNames[kStageCount] = {
    "queue_wait", "service",   "shard_comm",
    "escalated",  "cache_hit", "coalesce_wait",
};

/// Role a track plays in the engine's layout (obs/trace.hpp contract:
/// every engine registers `workers` worker lanes plus one control lane,
/// labels "<prefix>worker <w>" / "<prefix>control").
enum class TrackRole { kControl, kWorker, kOther };

struct TrackInfo {
  TrackRole role = TrackRole::kOther;
  std::string group;  ///< prefix with any trailing '/' trimmed
  std::string label;  ///< name with the group prefix stripped
};

TrackInfo ClassifyTrack(const std::string& name) {
  TrackInfo info;
  const std::string_view control = "control";
  const std::string_view worker = "worker ";
  auto trim_group = [](std::string g) {
    if (!g.empty() && g.back() == '/') g.pop_back();
    return g;
  };
  if (name.size() >= control.size() &&
      std::string_view(name).substr(name.size() - control.size()) == control) {
    info.role = TrackRole::kControl;
    info.group = trim_group(name.substr(0, name.size() - control.size()));
    info.label = control;
    return info;
  }
  const std::size_t at = name.find(worker);
  if (at != std::string::npos) {
    info.role = TrackRole::kWorker;
    info.group = trim_group(name.substr(0, at));
    info.label = name.substr(at);
    return info;
  }
  return info;
}

struct QueuePass {
  double begin_s = 0;
  double end_s = 0;
  std::uint64_t batch = 0;
};

struct ServiceSpan {
  double begin_s = 0;
  double end_s = 0;
  std::string worker;  ///< the worker lane's label ("worker 1")
};

struct CommSpan {
  double begin_s = 0;
  double end_s = 0;
};

struct SimpleSpan {
  double begin_s = 0;
  double end_s = 0;
};

/// Everything recorded against one track group (== one engine).
struct GroupSpans {
  std::map<std::uint64_t, double> admit_s;  ///< first admit per offered id
  std::map<std::uint64_t, std::vector<QueuePass>> queue_waits;
  std::map<std::uint64_t, std::pair<double, std::uint64_t>> completes;
  std::map<std::uint64_t, SimpleSpan> cache_hits;
  std::map<std::uint64_t, SimpleSpan> coalesces;
  std::map<std::uint64_t, ServiceSpan> services;  ///< by batch ordinal
  std::map<std::uint64_t, CommSpan> comms;        ///< by batch ordinal
  std::size_t rejected = 0;
};

void AddSegment(RequestAttribution& att, Stage stage, double begin_s,
                double end_s, std::string note) {
  StageSegment seg;
  seg.stage = stage;
  seg.begin_s = begin_s;
  seg.end_s = end_s;
  seg.note = std::move(note);
  att.stage_s[static_cast<std::size_t>(stage)] += seg.duration_s();
  att.segments.push_back(std::move(seg));
}

std::string Ms(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4gms", seconds * 1e3);
  return buf;
}

LatencyBreakdown BreakdownOf(const std::vector<RequestAttribution>& requests,
                             std::size_t rejected, std::size_t unattributed,
                             bool with_groups);

}  // namespace

const char* StageName(Stage stage) {
  const auto i = static_cast<std::size_t>(stage);
  return i < kStageCount ? kStageNames[i] : "unknown";
}

const char* RequestPathName(RequestPath path) {
  switch (path) {
    case RequestPath::kBatched:
      return "batched";
    case RequestPath::kEscalated:
      return "escalated";
    case RequestPath::kCacheHit:
      return "cache_hit";
    case RequestPath::kCoalesced:
      return "coalesced";
  }
  return "unknown";
}

double RequestAttribution::attributed_s() const {
  double sum = 0;
  for (const StageSegment& seg : segments) sum += seg.duration_s();
  return sum;
}

bool RequestAttribution::gap_free() const {
  if (segments.empty()) return false;
  if (segments.front().begin_s != arrival_s) return false;
  if (segments.back().end_s != done_s) return false;
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    if (segments[i].end_s != segments[i + 1].begin_s) return false;
  }
  return true;
}

Attribution AttributeSpans(
    const std::vector<TraceEvent>& merged,
    const std::vector<std::pair<std::uint32_t, std::string>>& tracks) {
  // Classify tracks, then bucket every span by (group, kind).  Group
  // labels key a std::map so iteration -- and therefore the output order
  // -- is deterministic regardless of track numbering.
  std::map<std::uint32_t, TrackInfo> info;
  for (const auto& [track, name] : tracks) info[track] = ClassifyTrack(name);
  std::map<std::string, GroupSpans> groups;

  for (const TraceEvent& e : merged) {
    const auto it = info.find(e.track);
    if (it == info.end() || it->second.role == TrackRole::kOther) continue;
    GroupSpans& g = groups[it->second.group];
    if (it->second.role == TrackRole::kWorker) {
      if (e.kind == SpanKind::kService) {
        g.services[e.id] = {e.begin_s, e.end_s, it->second.label};
      } else if (e.kind == SpanKind::kStage) {
        // The engine's sharded-backend collectives sub-span.
        g.comms[e.id] = {e.begin_s, e.end_s};
      }
      continue;
    }
    switch (e.kind) {
      case SpanKind::kAdmit:
        g.admit_s.emplace(e.id, e.begin_s);  // keep the first (root) admit
        break;
      case SpanKind::kReject:
        ++g.rejected;
        break;
      case SpanKind::kQueueWait:
        g.queue_waits[e.id].push_back({e.begin_s, e.end_s, static_cast<std::uint64_t>(e.arg)});
        break;
      case SpanKind::kComplete:
        g.completes[e.id] = {e.begin_s, static_cast<std::uint64_t>(e.arg)};
        break;
      case SpanKind::kCacheHit:
        g.cache_hits[e.id] = {e.begin_s, e.end_s};
        break;
      case SpanKind::kCacheCoalesce:
        g.coalesces[e.id] = {e.begin_s, e.end_s};
        break;
      default:
        break;  // kForm, kEpoch, kEscalate: not part of a request's cover
    }
  }

  Attribution out;
  for (auto& [label, g] : groups) {
    // Every offered id that left any lifecycle footprint; whatever cannot
    // be rebuilt into a complete timeline is counted, never dropped.
    std::set<std::uint64_t> ids;
    for (const auto& [id, _] : g.admit_s) ids.insert(id);
    for (const auto& [id, _] : g.queue_waits) ids.insert(id);
    for (const auto& [id, _] : g.completes) ids.insert(id);
    for (const auto& [id, _] : g.cache_hits) ids.insert(id);
    for (const auto& [id, _] : g.coalesces) ids.insert(id);

    for (const std::uint64_t id : ids) {
      RequestAttribution att;
      att.offered_id = id;
      att.group = label;
      if (const auto hit = g.cache_hits.find(id); hit != g.cache_hits.end()) {
        att.path = RequestPath::kCacheHit;
        att.arrival_s = hit->second.begin_s;
        att.done_s = hit->second.end_s;
        AddSegment(att, Stage::kCacheHit, hit->second.begin_s,
                   hit->second.end_s, {});
        out.requests.push_back(std::move(att));
        continue;
      }
      if (const auto co = g.coalesces.find(id); co != g.coalesces.end()) {
        att.path = RequestPath::kCoalesced;
        att.arrival_s = co->second.begin_s;
        att.done_s = co->second.end_s;
        AddSegment(att, Stage::kCoalesceWait, co->second.begin_s,
                   co->second.end_s, {});
        out.requests.push_back(std::move(att));
        continue;
      }
      const auto done = g.completes.find(id);
      const auto qw = g.queue_waits.find(id);
      if (done == g.completes.end() || qw == g.queue_waits.end() ||
          qw->second.empty()) {
        ++out.unattributed;  // overflow dropped a span the walk needs
        continue;
      }
      std::vector<QueuePass> passes = qw->second;
      std::sort(passes.begin(), passes.end(),
                [](const QueuePass& a, const QueuePass& b) {
                  return a.begin_s != b.begin_s ? a.begin_s < b.begin_s
                                                : a.batch < b.batch;
                });
      const auto admit = g.admit_s.find(id);
      att.arrival_s = admit != g.admit_s.end() ? admit->second
                                               : passes.front().begin_s;
      att.done_s = done->second.first;
      att.path = passes.size() > 1 ? RequestPath::kEscalated
                                   : RequestPath::kBatched;
      bool complete_cover = true;
      for (std::size_t p = 0; p < passes.size(); ++p) {
        const QueuePass& pass = passes[p];
        const auto svc = g.services.find(pass.batch);
        if (svc == g.services.end()) {
          complete_cover = false;
          break;
        }
        AddSegment(att, Stage::kQueueWait, pass.begin_s, pass.end_s,
                   "batch " + std::to_string(pass.batch));
        if (p + 1 < passes.size()) {
          // A superseded cheap first pass: its whole service slot is the
          // escalation cost.
          AddSegment(att, Stage::kEscalatedService, svc->second.begin_s,
                     svc->second.end_s, "batch " + std::to_string(pass.batch));
          continue;
        }
        const auto comm = g.comms.find(pass.batch);
        if (comm != g.comms.end()) {
          AddSegment(att, Stage::kService, svc->second.begin_s,
                     comm->second.begin_s, svc->second.worker);
          AddSegment(att, Stage::kShardComm, comm->second.begin_s,
                     comm->second.end_s, svc->second.worker);
        } else {
          AddSegment(att, Stage::kService, svc->second.begin_s,
                     svc->second.end_s, svc->second.worker);
        }
      }
      if (!complete_cover) {
        ++out.unattributed;
        continue;
      }
      out.requests.push_back(std::move(att));
    }
    out.rejected += g.rejected;
    if (g.rejected > 0 || !out.requests.empty()) {
      out.rejected_by_group.emplace_back(label, g.rejected);
    }
  }
  // groups map iteration is label-sorted and ids are set-sorted, so the
  // result is already ordered by (group, offered_id).
  return out;
}

Attribution AttributeTracer(const Tracer& tracer) {
  return AttributeSpans(tracer.Merged(), tracer.tracks());
}

namespace {

LatencyBreakdown BreakdownOf(const std::vector<RequestAttribution>& requests,
                             std::size_t rejected, std::size_t unattributed,
                             bool with_groups) {
  LatencyBreakdown bd;
  bd.requests = requests.size();
  bd.rejected = rejected;
  bd.unattributed = unattributed;
  if (requests.empty()) return bd;

  std::vector<double> e2e;
  e2e.reserve(requests.size());
  double sum = 0;
  for (const RequestAttribution& r : requests) {
    const double t = r.total_s();
    e2e.push_back(t);
    sum += t;
    if (!r.gap_free()) bd.gap_free = false;
    if (r.attributed_s() != t) bd.reconstruction_exact = false;
    // Worst boundary mismatch, for diagnostics when a cover is broken.
    if (!r.segments.empty()) {
      double gap = std::abs(r.segments.front().begin_s - r.arrival_s);
      gap = std::max(gap, std::abs(r.segments.back().end_s - r.done_s));
      for (std::size_t i = 0; i + 1 < r.segments.size(); ++i) {
        gap = std::max(gap, std::abs(r.segments[i].end_s -
                                     r.segments[i + 1].begin_s));
      }
      bd.max_gap_s = std::max(bd.max_gap_s, gap);
    }
  }
  std::sort(e2e.begin(), e2e.end());
  bd.mean_s = sum / static_cast<double>(e2e.size());
  bd.p50_s = PercentileOfSorted(e2e, 0.50);
  bd.p95_s = PercentileOfSorted(e2e, 0.95);
  bd.p99_s = PercentileOfSorted(e2e, 0.99);
  bd.max_s = e2e.back();

  // Per-stage distributions over the requests that pass through each
  // stage (a zero-length queue wait still counts as passing through).
  double all_stages_total = 0;
  for (std::size_t s = 0; s < kStageCount; ++s) {
    std::vector<double> values;
    for (const RequestAttribution& r : requests) {
      const bool present =
          std::any_of(r.segments.begin(), r.segments.end(),
                      [s](const StageSegment& seg) {
                        return static_cast<std::size_t>(seg.stage) == s;
                      });
      if (present) values.push_back(r.stage_s[s]);
    }
    if (values.empty()) continue;
    StageStats stats;
    stats.stage = static_cast<Stage>(s);
    stats.requests = values.size();
    for (const double v : values) stats.total_s += v;
    std::sort(values.begin(), values.end());
    stats.p50_s = PercentileOfSorted(values, 0.50);
    stats.p95_s = PercentileOfSorted(values, 0.95);
    stats.p99_s = PercentileOfSorted(values, 0.99);
    stats.max_s = values.back();
    all_stages_total += stats.total_s;
    bd.stages.push_back(stats);
  }
  for (StageStats& stats : bd.stages) {
    stats.share = all_stages_total > 0 ? stats.total_s / all_stages_total : 0;
  }

  // The p99 budget: where does the tail cohort's latency actually go?
  bd.tail.threshold_s = bd.p99_s;
  double tail_total = 0;
  double tail_stage[kStageCount] = {};
  for (const RequestAttribution& r : requests) {
    if (r.total_s() < bd.tail.threshold_s) continue;
    ++bd.tail.requests;
    for (std::size_t s = 0; s < kStageCount; ++s) {
      tail_stage[s] += r.stage_s[s];
      tail_total += r.stage_s[s];
    }
  }
  for (std::size_t s = 0; s < kStageCount; ++s) {
    bd.tail.share[s] = tail_total > 0 ? tail_stage[s] / tail_total : 0;
    if (bd.tail.share[s] > bd.tail.dominant_share) {
      bd.tail.dominant_share = bd.tail.share[s];
      bd.tail.dominant = static_cast<Stage>(s);
    }
  }

  if (const RequestAttribution* worst = TailRequest(requests)) {
    bd.critical_path = CriticalPathString(*worst);
  }
  if (with_groups) {
    std::vector<std::string> labels;
    for (const RequestAttribution& r : requests) {
      if (labels.empty() || labels.back() != r.group) {
        labels.push_back(r.group);  // requests are group-sorted
      }
    }
    if (labels.size() > 1) {
      for (const std::string& label : labels) {
        std::vector<RequestAttribution> subset;
        for (const RequestAttribution& r : requests) {
          if (r.group == label) subset.push_back(r);
        }
        bd.groups.emplace_back(label, BreakdownOf(subset, 0, 0, false));
      }
    }
  }
  return bd;
}

void WriteBreakdownBody(const LatencyBreakdown& bd, JsonWriter& json) {
  json.Key("requests").Value(bd.requests);
  json.Key("rejected").Value(bd.rejected);
  json.Key("unattributed").Value(bd.unattributed);
  json.Key("gap_free").Value(bd.gap_free);
  json.Key("reconstruction_exact").Value(bd.reconstruction_exact);
  json.Key("max_gap_s").ValueExact(bd.max_gap_s);
  json.Key("end_to_end");
  json.BeginObject();
  json.Key("mean_ms").ValueExact(bd.mean_s * 1e3);
  json.Key("p50_ms").ValueExact(bd.p50_s * 1e3);
  json.Key("p95_ms").ValueExact(bd.p95_s * 1e3);
  json.Key("p99_ms").ValueExact(bd.p99_s * 1e3);
  json.Key("max_ms").ValueExact(bd.max_s * 1e3);
  json.EndObject();
  json.Key("stages");
  json.BeginArray();
  for (const StageStats& s : bd.stages) {
    json.BeginObject();
    json.Key("stage").Value(StageName(s.stage));
    json.Key("requests").Value(s.requests);
    json.Key("total_ms").ValueExact(s.total_s * 1e3);
    json.Key("share").ValueExact(s.share);
    json.Key("p50_ms").ValueExact(s.p50_s * 1e3);
    json.Key("p95_ms").ValueExact(s.p95_s * 1e3);
    json.Key("p99_ms").ValueExact(s.p99_s * 1e3);
    json.Key("max_ms").ValueExact(s.max_s * 1e3);
    json.EndObject();
  }
  json.EndArray();
  json.Key("tail");
  json.BeginObject();
  json.Key("threshold_ms").ValueExact(bd.tail.threshold_s * 1e3);
  json.Key("requests").Value(bd.tail.requests);
  json.Key("dominant_stage").Value(StageName(bd.tail.dominant));
  json.Key("dominant_share").ValueExact(bd.tail.dominant_share);
  json.Key("shares");
  json.BeginArray();
  for (const StageStats& s : bd.stages) {
    json.BeginObject();
    json.Key("stage").Value(StageName(s.stage));
    json.Key("share")
        .ValueExact(bd.tail.share[static_cast<std::size_t>(s.stage)]);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  json.Key("critical_path").Value(bd.critical_path);
}

}  // namespace

LatencyBreakdown ComputeBreakdown(const Attribution& attribution) {
  LatencyBreakdown bd = BreakdownOf(attribution.requests, attribution.rejected,
                                    attribution.unattributed, true);
  // Per-group rejects (a fleet trace records them on replica control
  // lanes; the overall count above already pooled them).
  for (auto& [label, sub] : bd.groups) {
    for (const auto& [glabel, grejected] : attribution.rejected_by_group) {
      if (glabel == label) sub.rejected = grejected;
    }
  }
  return bd;
}

void WriteBreakdownJson(const LatencyBreakdown& breakdown, JsonWriter& json) {
  json.BeginObject();
  json.Key("schema_version").Value(std::size_t{1});
  WriteBreakdownBody(breakdown, json);
  json.Key("groups");
  json.BeginArray();
  for (const auto& [label, sub] : breakdown.groups) {
    json.BeginObject();
    json.Key("group").Value(label);
    WriteBreakdownBody(sub, json);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
}

std::string BreakdownJson(const LatencyBreakdown& breakdown) {
  JsonWriter json;
  WriteBreakdownJson(breakdown, json);
  return json.str();
}

bool BreakdownMatchesReport(const LatencyBreakdown& breakdown,
                            const ServingReport& report) {
  return breakdown.requests == report.requests &&
         breakdown.p50_s == report.p50_latency_s &&
         breakdown.p95_s == report.p95_latency_s &&
         breakdown.p99_s == report.p99_latency_s;
}

std::string CollapsedStacks(const std::vector<RequestAttribution>& requests) {
  // Aggregate before rendering: map keys give the lexicographic line
  // order the flame importers (and the byte-identity gate) rely on.
  std::map<std::string, double> weight;
  for (const RequestAttribution& r : requests) {
    std::string base = "all;";
    if (!r.group.empty()) {
      base += r.group;
      base += ';';
    }
    base += RequestPathName(r.path);
    for (const StageSegment& seg : r.segments) {
      weight[base + ';' + StageName(seg.stage)] += seg.duration_s();
    }
  }
  std::string out;
  for (const auto& [stack, seconds] : weight) {
    const long long ns = std::llround(seconds * 1e9);
    if (ns <= 0) continue;
    out += stack;
    out += ' ';
    out += std::to_string(ns);
    out += '\n';
  }
  return out;
}

const RequestAttribution* TailRequest(
    const std::vector<RequestAttribution>& requests) {
  const RequestAttribution* worst = nullptr;
  for (const RequestAttribution& r : requests) {
    // requests are (group, id)-sorted, so strict > keeps the first of a
    // tie -- the lowest (group, offered_id), deterministically.
    if (worst == nullptr || r.total_s() > worst->total_s()) worst = &r;
  }
  return worst;
}

std::string CriticalPathString(const RequestAttribution& request) {
  std::string out = "req " + std::to_string(request.offered_id);
  if (!request.group.empty()) out += " @" + request.group;
  out += ": ";
  for (std::size_t i = 0; i < request.segments.size(); ++i) {
    const StageSegment& seg = request.segments[i];
    if (i > 0) out += " -> ";
    out += StageName(seg.stage);
    out += ' ';
    out += Ms(seg.duration_s());
    if (!seg.note.empty()) out += " (" + seg.note + ")";
  }
  out += " | e2e " + Ms(request.total_s());
  return out;
}

}  // namespace latte::obs
