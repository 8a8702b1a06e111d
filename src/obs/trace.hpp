#pragma once
// Deterministic request-lifecycle tracer.
//
// Spans are recorded in *virtual* time -- the same clock batches,
// admission and reports run on -- into per-track buffers.  A track is a
// logical lane (one per virtual worker slot, one control lane per
// engine) and every track is only ever written by one thread, so buffers
// need no locks and their contents are the program order of a
// deterministic event loop.  Merged() concatenates
// tracks in id order and stable-sorts by (begin_s, track): the merged
// stream is therefore byte-identical at any thread count, which is what
// lets CI gate a trace against a recorded baseline.
//
// Memory is bounded: each track keeps its first `buffer_capacity`
// events and counts the rest as dropped -- never silently.  Events carry
// no wall-clock stamp: every recorded field is a function of the
// virtual-time run.
//
// The disabled path is one pointer check at each instrumentation site:
// an engine with tracing off holds a null Tracer* and records nothing.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "config/check.hpp"

namespace latte::obs {

/// Every span/instant kind the serving stack records.  Values are stable
/// (they appear in exported traces); append, never renumber.
enum class SpanKind : std::uint8_t {
  kAdmit = 0,         ///< request admitted to the waiting room (arg: tier)
  kReject,            ///< bounced by the bounded queue / shed (instant)
  kCacheHit,          ///< served from a live cache entry (span: arrival->done)
  kCacheCoalesce,     ///< follower rode an in-flight leader (span)
  kForm,              ///< batch open->seal (arg: BatchSeal reason)
  kQueueWait,         ///< request arrival->its batch's launch (arg: batch)
  kService,           ///< batch launch->completion on a worker (arg: size/tier)
  kComplete,          ///< request completion (instant, arg: batch)
  kEscalate,          ///< cheap first pass superseded, re-run at tier 0
  kEpoch,             ///< controller epoch boundary (arg: level after)
  kStage,             ///< a sharded batch's collectives tail (arg: degree)
};

/// Stable lower-case name ("admit", "queue_wait", ...) used as the Chrome
/// trace event name.
const char* SpanKindName(SpanKind kind);

/// Tracing knobs, carried inside ServingEngineConfig / ClusterConfig.
struct TraceConfig {
  bool enabled = false;
  /// Max events retained per track; beyond it events are counted as
  /// dropped, never silently discarded.
  std::size_t buffer_capacity = 1u << 16;
};

/// Names every illegal field; empty means legal.
ConfigIssues CheckTraceConfig(const TraceConfig& cfg);

/// One recorded event.  Instants have end_s == begin_s.
struct TraceEvent {
  double begin_s = 0;   ///< virtual time
  double end_s = 0;     ///< virtual time; == begin_s for instants
  std::uint64_t id = 0; ///< request Push() ordinal / batch ordinal / stage
  std::int64_t arg = 0; ///< kind-specific payload (seal reason, tier, ...)
  std::uint32_t track = 0;
  SpanKind kind = SpanKind::kAdmit;
};

/// Bounded per-track event buffer: keeps the first `capacity` events and
/// counts overflow.  Single-writer; the writer is whichever thread owns
/// the track.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity) : capacity_(capacity) {
    events_.reserve(capacity < 1024 ? capacity : 1024);
  }

  void Record(const TraceEvent& e) {
    if (events_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    events_.push_back(e);
  }

  const std::vector<TraceEvent>& events() const { return events_; }
  std::uint64_t dropped() const { return dropped_; }
  void Clear() {
    events_.clear();
    dropped_ = 0;
  }

 private:
  std::size_t capacity_;
  std::vector<TraceEvent> events_;
  std::uint64_t dropped_ = 0;
};

/// The tracer an engine/cluster run records into.
///
/// Threading contract: RegisterTrack() only from the control thread
/// *before* any parallel recording (engines register at construction /
/// attach); after that the track map is immutable and Record() calls on
/// distinct tracks never contend.  Each track has exactly one writer.
class Tracer {
 public:
  explicit Tracer(const TraceConfig& cfg);

  /// Creates (or re-labels) a track.  Idempotent per id.
  void RegisterTrack(std::uint32_t track, std::string name);

  /// Records into the track's buffer.  Throws std::invalid_argument on an
  /// unregistered track -- a wiring bug, not a runtime condition.
  void Record(const TraceEvent& e);

  /// All events across tracks, merged deterministically: tracks in id
  /// order, stable-sorted by (begin_s, track) -- same-track ties keep
  /// their single-writer program order, so the stream is a pure function
  /// of the virtual-time run.
  std::vector<TraceEvent> Merged() const;

  /// Total events dropped across tracks (bounded-buffer overflow).
  std::uint64_t total_dropped() const;

  /// Registered tracks in id order: (track, name).
  std::vector<std::pair<std::uint32_t, std::string>> tracks() const;

  const TraceBuffer* buffer(std::uint32_t track) const;

  /// Drops all recorded events (track registrations survive); for reusing
  /// one tracer across streams.
  void Clear();

  const TraceConfig& config() const { return cfg_; }

 private:
  struct Track {
    std::string name;
    TraceBuffer buffer;
  };
  TraceConfig cfg_;
  std::map<std::uint32_t, Track> tracks_;
};

}  // namespace latte::obs
