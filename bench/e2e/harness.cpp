#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>

namespace latte::e2e {
namespace {

/// CoreSpeed's loop stores its result here, so it cannot be elided.
volatile std::uint64_t reference_sink = 0;

/// Standard normal quantile by bisection on erfc: exact to double
/// rounding, and the benchmark calls it a few hundred times at most.
double NormalQuantile(double p) {
  double lo = -10, hi = 10;
  for (int it = 0; it < 200; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (0.5 * std::erfc(-mid / std::sqrt(2.0)) < p) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return obs::PercentileOfSorted(values, 0.5);
}

void FastestRepeat::Record(std::size_t segment, double seconds) {
  if (segment >= best_.size()) {
    best_.resize(segment + 1, std::numeric_limits<double>::infinity());
  }
  best_[segment] = std::min(best_[segment], seconds);
}

double FastestRepeat::Sum() const {
  double sum = 0;
  for (double s : best_) sum += s;
  return sum;
}

void CoreSpeed::Sample() {
  for (int rep = 0; rep < 2; ++rep) {
    const auto t0 = Clock::now();
    std::uint64_t x = 88172645463325252ULL, acc = 0;
    for (int i = 0; i < 10000000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += (x & 0xff) * (x >> 56);
    }
    reference_sink = acc;
    best_s_ = std::min(best_s_, SecondsSince(t0));
  }
}

double PeakRssMb() {
  // VmHWM is this address space's own high-water mark.  getrusage's
  // ru_maxrss survives exec, so a small workload would report the larger
  // RSS of the process that spawned it.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool BitEqual(const MatrixF& a, const MatrixF& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.flat().data(), b.flat().data(),
                     a.size() * sizeof(float)) == 0;
}

bool AllFinite(const MatrixF& m) {
  for (float v : m.flat()) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

std::vector<std::size_t> QuantileLengths(const DatasetSpec& dataset,
                                         std::size_t count,
                                         std::uint64_t seed) {
  const LengthSampler sampler(dataset);
  std::vector<std::size_t> lengths(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double p = (static_cast<double>(i) + 0.5) / static_cast<double>(count);
    const double x = std::exp(sampler.mu() + sampler.sigma() * NormalQuantile(p));
    lengths[i] = static_cast<std::size_t>(
        std::lround(std::clamp(x, dataset.min_len, dataset.max_len)));
  }
  Rng rng(seed);
  for (std::size_t i = count; i > 1; --i) {
    std::swap(lengths[i - 1], lengths[rng.NextIndex(i)]);
  }
  return lengths;
}

SpanTrace::SpanTrace(std::vector<std::string> names)
    : names_(std::move(names)), totals_(names_.size()) {}

void SpanTrace::Begin(std::size_t name, std::uint64_t request) {
  Open open;
  open.name = static_cast<std::uint32_t>(name);
  if (recording_) {
    if (spans_.size() < kRecordCap) {
      open.index = static_cast<std::int64_t>(spans_.size());
      Span span;
      span.name = open.name;
      span.parent = stack_.empty() ? -1 : stack_.back().index;
      span.request = request;
      spans_.push_back(span);
    } else {
      ++dropped_;
    }
  }
  open.begin_ns = NowNs();
  stack_.push_back(open);
}

void SpanTrace::End() {
  const std::int64_t end_ns = NowNs();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::int64_t dur_ns = end_ns - open.begin_ns;
  Totals& t = totals_[open.name];
  ++t.calls;
  t.total_s += static_cast<double>(dur_ns) * 1e-9;
  t.self_s += static_cast<double>(dur_ns - open.child_ns) * 1e-9;
  if (!stack_.empty()) stack_.back().child_ns += dur_ns;
  if (open.index >= 0) {
    Span& span = spans_[static_cast<std::size_t>(open.index)];
    span.name = open.name;
    span.begin_ns = open.begin_ns;
    span.end_ns = end_ns;
  }
}

void SpanTrace::Relabel(std::size_t name) {
  stack_.back().name = static_cast<std::uint32_t>(name);
}

bool SpanTrace::WriteChrome(const std::string& path) const {
  obs::JsonWriter json;
  json.BeginObject();
  json.Key("displayTimeUnit").Value("ns");
  json.Key("traceEvents");
  json.BeginArray();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    json.BeginObject();
    json.Key("name").Value(names_[s.name]);
    json.Key("ph").Value("X");
    json.Key("pid").Value(std::size_t{1});
    json.Key("tid").Value(std::size_t{1});
    json.Key("ts").ValueExact(static_cast<double>(s.begin_ns) * 1e-3);
    json.Key("dur").ValueExact(static_cast<double>(s.end_ns - s.begin_ns) *
                               1e-3);
    json.Key("args");
    json.BeginObject();
    json.Key("span").Value(i);
    json.Key("parent").Raw(std::to_string(s.parent));
    json.Key("request").Value(static_cast<std::size_t>(s.request));
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  json.Key("dropped_spans").Value(dropped_);
  json.EndObject();
  return json.WriteFile(path);
}

bool SpanTrace::WriteLayers(const std::string& path, double wall_s) const {
  obs::JsonWriter json;
  json.BeginObject();
  json.Key("wall_ms").ValueExact(wall_s * 1e3);
  json.Key("spans");
  json.BeginArray();
  for (std::size_t i = 0; i < names_.size(); ++i) {
    const Totals& t = totals_[i];
    if (t.calls == 0) continue;
    json.BeginObject();
    json.Key("name").Value(names_[i]);
    json.Key("calls").Value(t.calls);
    json.Key("total_ms").ValueExact(t.total_s * 1e3);
    json.Key("self_ms").ValueExact(t.self_s * 1e3);
    json.Key("self_share").ValueExact(wall_s > 0 ? t.self_s / wall_s : 0);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.WriteFile(path);
}

}  // namespace latte::e2e
