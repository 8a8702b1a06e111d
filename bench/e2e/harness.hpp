#pragma once
// Shared pieces of latte_bench: run options, the result record every
// workload fills, wall-clock helpers, length profiles and the in-memory
// span trace of the traced run.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "latte/latte.hpp"

namespace latte::e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Stop rule of every timed loop: run at least `min_count` iterations,
/// then another only while it (taking about as long as the last one,
/// `last_s`) still ends within `seconds` of `start`.
inline bool KeepGoing(Clock::time_point start, std::size_t count,
                      std::size_t min_count, double last_s, double seconds) {
  return count < min_count || SecondsSince(start) + last_s <= seconds;
}

/// Seed of every model's weights; --seed draws only the inputs.
constexpr std::uint64_t kWeightSeed = 2022;

/// One BERT-base-shaped encoder layer (hidden 768, 12 heads, ffn 3072).
inline ModelConfig BertBaseLayer() {
  ModelConfig m = BertBase();
  m.name = "bert-base/1-layer";
  m.layers = 1;
  return m;
}

/// Parsed command line.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;    ///< length of the timed region
  std::string out_dir;    ///< <out_dir>/<workload>.json
  std::string trace_dir;  ///< empty = untraced run (end-to-end metrics)

  bool traced() const { return !trace_dir.empty(); }
};

/// Everything one run reports.
struct RunResult {
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  /// Context numbers written to the run JSON but not gated ("info").
  std::vector<std::pair<std::string, double>> info;
  /// Sample counts behind the metrics ("passes", "replays", ...).
  std::vector<std::pair<std::string, std::size_t>> samples;
  /// Named correctness checks and whether each held.
  std::vector<std::pair<std::string, bool>> checks;
  std::size_t attempted = 0;  ///< sequences encoded / requests offered
  std::size_t failed = 0;     ///< operations a correctness check rejected
  /// Traced run only: the rebuilt layer did not reproduce the untraced
  /// outputs bit for bit, so its per-layer numbers describe other code.
  bool per_layer_stale = false;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Info(std::string name, double value) {
    info.emplace_back(std::move(name), value);
  }
  void Samples(std::string name, std::size_t count) {
    samples.emplace_back(std::move(name), count);
  }
  /// Records a check; a failed one charges `failed_ops` to `failed`,
  /// which makes the run exit non-zero.  0 records the outcome only.
  void Check(std::string name, bool ok, std::size_t failed_ops = 1) {
    checks.emplace_back(std::move(name), ok);
    if (!ok) failed += failed_ops;
  }
};

/// Median of a sample (0 when empty); the sample is copied.
double Median(std::vector<double> values);

/// Host time of a loop that repeats the same segments of work: each
/// segment's fastest repeat, summed.  Other tenants of a shared host only
/// add time, in bursts of cache and memory-bandwidth contention lasting a
/// second or two that slowed whole runs by up to 35%; a segment's fastest
/// repeat is its uncontended cost, so the sum moves only with the code.
class FastestRepeat {
 public:
  void Record(std::size_t segment, double seconds);
  double Sum() const;

 private:
  std::vector<double> best_;
};

/// Speed of this host's core, from a fixed compute-only loop compiled
/// into the benchmark (no memory traffic, no library code).  Host
/// throughputs are scaled to a core that runs the loop in
/// kReferenceLoopS, the median on the host that fixed the bounds.  The
/// core clock of a shared host follows the other tenants' load (the
/// loop's fastest time varied by 20% between runs), and the scaling
/// cancels that while no change to the library can move it.
class CoreSpeed {
 public:
  static constexpr double kReferenceLoopS = 0.0220;

  /// Times the loop twice.  Call between timed segments.
  void Sample();
  /// The loop's fastest time so far.
  double loop_s() const { return best_s_; }
  /// Factor taking a throughput measured on this core to the reference.
  double Scale() const { return best_s_ / kReferenceLoopS; }

 private:
  double best_s_ = std::numeric_limits<double>::infinity();
};

/// Set-ups per untraced run; setup_s is their median.
constexpr std::size_t kSetups = 5;

/// Runs `build` (returning a std::unique_ptr) `count` times, dropping the
/// previous result first so memory holds one set-up at a time, and
/// appends each wall time to `seconds`.  Returns the last result.
template <typename Build>
auto RepeatSetup(std::size_t count, const Build& build,
                 std::vector<double>& seconds) {
  decltype(build()) last;
  for (std::size_t i = 0; i < count; ++i) {
    last.reset();
    const auto t0 = Clock::now();
    last = build();
    seconds.push_back(SecondsSince(t0));
  }
  return last;
}

/// Peak resident set size of this process, in MiB (VmHWM; getrusage's max
/// RSS where /proc is missing).
double PeakRssMb();

/// Bitwise equality of two float matrices (shape and every bit).
bool BitEqual(const MatrixF& a, const MatrixF& b);

/// True when every element is finite.
bool AllFinite(const MatrixF& m);

/// `count` sequence lengths at the quantile midpoints (i + 0.5) / count of
/// the dataset's fitted length distribution (workload/dataset.hpp), in an
/// order shuffled by `seed`.  Unlike sampled lengths, the multiset does
/// not depend on a draw, so neither does the work of a pass.
std::vector<std::size_t> QuantileLengths(const DatasetSpec& dataset,
                                         std::size_t count, std::uint64_t seed);

/// In-memory span trace of the traced run.  Spans nest on one thread:
/// Begin() opens a child of the innermost open span, End() closes it.
/// Every closed span adds its duration and self time (duration minus the
/// time its children cover) to per-name totals; while recording is on
/// the span itself is also kept for the Chrome trace export.
class SpanTrace {
 public:
  struct Totals {
    std::size_t calls = 0;
    double total_s = 0;
    double self_s = 0;
  };

  /// `names` is the span taxonomy; Begin() takes an index into it.
  explicit SpanTrace(std::vector<std::string> names);

  void Begin(std::size_t name, std::uint64_t request);
  void End();
  /// Renames the innermost open span (for outcomes known only after the
  /// call returns, such as a cache hit).
  void Relabel(std::size_t name);

  /// RAII span.
  class Scope {
   public:
    Scope(SpanTrace& trace, std::size_t name, std::uint64_t request)
        : trace_(trace) {
      trace_.Begin(name, request);
    }
    ~Scope() { trace_.End(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanTrace& trace_;
  };

  /// Keep individual spans (up to kRecordCap; the rest count as dropped)
  /// for WriteChrome(); totals are always kept.
  void set_recording(bool on) { recording_ = on; }

  const Totals& totals(std::size_t name) const { return totals_.at(name); }
  std::size_t name_count() const { return names_.size(); }
  std::size_t recorded() const { return spans_.size(); }
  std::size_t dropped() const { return dropped_; }

  /// Chrome trace-event JSON (ph "X", microseconds) of the recorded spans;
  /// args carry the request id and the parent span index.
  bool WriteChrome(const std::string& path) const;

  /// Per-name totals as JSON: calls, total and self ms, and self share of
  /// `wall_s`.
  bool WriteLayers(const std::string& path, double wall_s) const;

 private:
  struct Span {
    std::uint32_t name = 0;
    std::int64_t parent = -1;  ///< index into spans_, -1 = root
    std::uint64_t request = 0;
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = 0;
  };
  struct Open {
    std::uint32_t name = 0;
    std::int64_t begin_ns = 0;
    std::int64_t child_ns = 0;
    std::int64_t index = -1;  ///< recorded span index, -1 if not recorded
  };

  std::int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::vector<Open> stack_;
  static constexpr std::size_t kRecordCap = 200000;

  std::vector<Span> spans_;
  bool recording_ = false;
  std::size_t dropped_ = 0;
  Clock::time_point epoch_ = Clock::now();
};

/// The two workload families.
RunResult RunEncode(const Options& opts);
RunResult RunServe(const Options& opts);

}  // namespace latte::e2e
