#pragma once
// Latency attribution and forensics over recorded lifecycle traces.
//
// PR 9's Tracer records what happened; this module answers *where the
// time went*.  AttributeTracer() walks Merged() spans and rebuilds every
// served request's timeline as a gap-free chain of stage segments --
// queue-wait, (per-tier) service, shard collectives, escalated first
// passes, cache hits, coalesce waits -- whose boundaries are the exact
// doubles the engine recorded: consecutive segments share their boundary
// bitwise, the first begins at the arrival and the last ends at the
// completion, so the decomposition covers each request's end-to-end
// latency with no unattributed gap (checked, never assumed).
//
// ComputeBreakdown() aggregates attributions into a LatencyBreakdown:
// per-stage p50/p95/p99 through the shared obs/percentiles arithmetic,
// a "p99 budget" (which stage dominates the tail cohort), per-replica
// sub-breakdowns for fleet traces, and the critical path of the worst
// request.  CollapsedStacks() renders the same attributions as
// FlameGraph/speedscope-loadable collapsed stacks.  Everything here is a
// pure function of the merged span stream, so -- like the tracer itself
// -- every output is byte-identical at any thread count and CI can gate
// breakdown JSON against a recorded baseline (the BREAKDOWN_obs.json
// entry of bench/check_regression.py, tools/trace_diff).

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace latte {
struct ServingReport;
}

namespace latte::obs {

class JsonWriter;

/// Stages a request's end-to-end latency decomposes into, in the fixed
/// order reports and flame stacks use.  Values are stable (they appear in
/// exported breakdown JSON); append, never renumber.
enum class Stage : std::uint8_t {
  kQueueWait = 0,      ///< arrival (or re-queue) -> its batch's launch
  kService,            ///< final batch launch -> completion (minus comm)
  kShardComm,          ///< gang collectives tail of a sharded service
  kEscalatedService,   ///< a superseded cheap first pass (launch -> done)
  kCacheHit,           ///< served from a live entry (arrival -> done)
  kCoalesceWait,       ///< follower riding an in-flight leader
};
inline constexpr std::size_t kStageCount = 6;

/// Stable lower-case stage name ("queue_wait", "shard_comm", ...).
const char* StageName(Stage stage);

/// Which lifecycle a request took through the engine.
enum class RequestPath : std::uint8_t {
  kBatched = 0,  ///< admitted, batched, served
  kEscalated,    ///< cheap first pass superseded, re-run at tier 0
  kCacheHit,     ///< served from the result cache
  kCoalesced,    ///< coalesced onto an in-flight leader
};
const char* RequestPathName(RequestPath path);

/// One contiguous slice of a request's timeline.
struct StageSegment {
  Stage stage = Stage::kQueueWait;
  double begin_s = 0;
  double end_s = 0;
  /// Kind-specific annotation ("batch 7", "worker 1") for critical-path
  /// rendering; empty when there is nothing to name.
  std::string note;

  double duration_s() const { return end_s - begin_s; }
};

/// One request's reconstructed timeline.
struct RequestAttribution {
  std::uint64_t offered_id = 0;  ///< Push() ordinal within its engine
  /// Track-group label: the replica prefix of a fleet trace ("r0"),
  /// empty for a single engine.
  std::string group;
  RequestPath path = RequestPath::kBatched;
  double arrival_s = 0;
  double done_s = 0;
  /// Time-ordered, boundary-contiguous stage cover of [arrival, done].
  std::vector<StageSegment> segments;
  /// Per-stage totals (a stage may repeat, e.g. two queue waits around an
  /// escalation), indexed by Stage.
  double stage_s[kStageCount] = {};

  double total_s() const { return done_s - arrival_s; }
  /// Left-to-right sum of segment durations -- what "stage sums
  /// reconstruct the end-to-end latency" is checked against.
  double attributed_s() const;
  /// Exact boundary contiguity: segments tile [arrival, done] with every
  /// shared boundary equal bitwise.
  bool gap_free() const;
};

/// Everything one attribution pass recovers from a trace.
struct Attribution {
  /// Served requests sorted by (group, offered_id) -- deterministic.
  std::vector<RequestAttribution> requests;
  /// Requests whose spans were incomplete (ring-buffer overflow dropped
  /// a span the walk needed).  Never silently folded into `requests`.
  std::size_t unattributed = 0;
  /// kReject instants seen (bounced / shed requests; they have no
  /// latency to attribute).
  std::size_t rejected = 0;
  /// Per-track-group reject counts, sorted by label (feeds the per-group
  /// sub-breakdowns of fleet traces).
  std::vector<std::pair<std::string, std::size_t>> rejected_by_group;
};

/// Rebuilds per-request timelines from a merged span stream.  `tracks`
/// is the tracer's (id, name) registry: names ending in "control" and
/// containing "worker " define a track group (one per engine); tracks
/// matching neither are ignored.
Attribution AttributeSpans(
    const std::vector<TraceEvent>& merged,
    const std::vector<std::pair<std::uint32_t, std::string>>& tracks);

/// AttributeSpans over tracer.Merged() / tracer.tracks().
Attribution AttributeTracer(const Tracer& tracer);

/// Aggregate statistics of one stage across requests.
struct StageStats {
  Stage stage = Stage::kQueueWait;
  std::size_t requests = 0;  ///< requests with at least one such segment
  double total_s = 0;        ///< summed over all requests
  double share = 0;          ///< total_s / sum of all stage totals
  double p50_s = 0;
  double p95_s = 0;
  double p99_s = 0;
  double max_s = 0;
};

/// Which stage the p99 cohort's latency budget goes to.
struct TailAttribution {
  double threshold_s = 0;      ///< the e2e p99; cohort is latency >= this
  std::size_t requests = 0;    ///< cohort size (>= 1 when any request)
  double share[kStageCount] = {};  ///< stage share of the cohort's budget
  Stage dominant = Stage::kQueueWait;
  double dominant_share = 0;
};

/// The full decomposition of a run.
struct LatencyBreakdown {
  std::size_t requests = 0;
  std::size_t rejected = 0;
  std::size_t unattributed = 0;
  double mean_s = 0;
  double p50_s = 0;  ///< bitwise equal to the pooled ServingReport's
  double p95_s = 0;
  double p99_s = 0;
  double max_s = 0;
  /// Every request's segments tile [arrival, done] with exact shared
  /// boundaries: nothing in the end-to-end latency is unattributed.
  bool gap_free = true;
  /// Left-to-right duration sums equal done - arrival bitwise for every
  /// request (the stronger, FP-associativity-sensitive form of gap_free).
  bool reconstruction_exact = true;
  double max_gap_s = 0;  ///< worst boundary mismatch (0 when gap_free)
  /// Stages present in this run, in Stage order.
  std::vector<StageStats> stages;
  TailAttribution tail;
  /// The worst request's serial chain, rendered for humans
  /// ("req 42 @r1: queue_wait 2.10ms (batch 7) -> ...").
  std::string critical_path;
  /// Per-track-group sub-breakdowns (fleet traces only; empty when the
  /// trace has a single group), sorted by label.
  std::vector<std::pair<std::string, LatencyBreakdown>> groups;
};

/// Aggregates attributions into the run's breakdown.
LatencyBreakdown ComputeBreakdown(const Attribution& attribution);

/// Emits the breakdown as one JSON object (schema_version, end_to_end,
/// stages, tail, groups, critical_path).  %.17g values, so a reader
/// recovers the exact doubles; byte-deterministic.
void WriteBreakdownJson(const LatencyBreakdown& breakdown, JsonWriter& json);
std::string BreakdownJson(const LatencyBreakdown& breakdown);

/// The pooled ServingReport and the breakdown describe the same request
/// set through the same percentile arithmetic: true when requests and
/// p50/p95/p99 agree bitwise.
bool BreakdownMatchesReport(const LatencyBreakdown& breakdown,
                            const ServingReport& report);

/// Collapsed-stack flame rendering: one line per
/// "all;<group>;<path>;<stage>" frame chain with its total weight in
/// integer nanoseconds, lines sorted lexicographically (FlameGraph /
/// speedscope "Brendan Gregg collapsed" importers load this directly).
std::string CollapsedStacks(const std::vector<RequestAttribution>& requests);

/// The worst request (max end-to-end latency; ties break to the lowest
/// (group, offered_id)), or nullptr when `requests` is empty.
const RequestAttribution* TailRequest(
    const std::vector<RequestAttribution>& requests);

/// Renders one request's serial chain:
/// "req 42 @r1: queue_wait 2.10ms (batch 7) -> service 1.30ms (worker 0)
///  | e2e 3.40ms".
std::string CriticalPathString(const RequestAttribution& request);

}  // namespace latte::obs
