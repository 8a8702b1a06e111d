#pragma once
// The one percentile / latency-pooling / histogram implementation.
//
// Before this module, p50/p95/p99 pooling was written three times --
// serve/report, cluster/accounting and adapt/controller -- each with its
// own copy of the sort-and-interpolate
// arithmetic and the first-arrival/last-done span bookkeeping.  All of
// them now route here, so a percentile is computed by exactly one
// function and the reports stay byte-identical with each other by
// construction, not by careful duplication.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace latte::obs {

/// Linear-interpolated percentile of an ascending-sorted sample, p in
/// [0, 1].  Returns 0 on an empty sample.  This is the arithmetic every
/// report in the repo uses; recorded bench baselines depend on it bit
/// for bit, so change it only with a baseline re-record.
double PercentileOfSorted(const std::vector<double>& sorted, double p);

/// Percentile of the first `count` entries of an *unsorted* ring-buffer
/// window (the adaptive controller's rolling view): copies, sorts, and
/// interpolates.  Returns 0 when count == 0.
double PercentileOfWindow(const std::vector<double>& window,
                          std::size_t count, double p);

/// Accumulates per-request latencies plus the first-arrival -> last-done
/// span every report derives throughput and busy fraction from.  The
/// pooling loops in serve/engine and cluster/accounting fold onto this;
/// Add/ExtendSpan reproduce their arithmetic exactly.
struct LatencyPool {
  std::vector<double> latencies;
  double first_arrival = std::numeric_limits<double>::infinity();
  double last_done = 0;

  /// One served request: latency done - arrival, extending the span on
  /// both ends.
  void Add(double arrival_s, double done_s) {
    latencies.push_back(done_s - arrival_s);
    if (arrival_s < first_arrival) first_arrival = arrival_s;
    if (done_s > last_done) last_done = done_s;
  }

  /// Extends only the completion edge -- a batch whose members all went
  /// elsewhere (adaptive: every first pass superseded) still holds the
  /// span open until its completion.
  void ExtendSpan(double done_s) {
    if (done_s > last_done) last_done = done_s;
  }

  /// first-arrival -> last-done, or 0 when nothing was pooled.
  double span() const {
    return latencies.empty() ? 0 : last_done - first_arrival;
  }
};

/// Fixed-bucket histogram: `buckets` uniform cells over [lo, hi), with
/// values below lo folded into the first cell and values at or above hi
/// into the last (bounded memory, nothing dropped silently).  The
/// registry's histogram metric; deterministic given the same Record
/// sequence.
class FixedHistogram {
 public:
  /// Requires hi > lo and buckets >= 1 (throws std::invalid_argument).
  FixedHistogram(double lo, double hi, std::size_t buckets);

  void Record(double v);

  std::size_t bucket_count() const { return counts_.size(); }
  std::uint64_t count(std::size_t bucket) const { return counts_[bucket]; }
  /// Inclusive lower edge of `bucket`.
  double bucket_lo(std::size_t bucket) const;
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  std::uint64_t total() const { return total_; }
  double sum() const { return sum_; }
  double min() const { return min_; }  ///< +inf when empty
  double max() const { return max_; }  ///< -inf when empty

 private:
  double lo_;
  double hi_;
  double width_;  ///< (hi - lo) / buckets
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  double sum_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace latte::obs
