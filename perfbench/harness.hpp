// Shared plumbing of the end-to-end benchmark program: options, the result
// report, per-layer clocks, span/counter readers and order statistics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measured time of the whole run
  bool trace = false;     // traced run: per-layer metrics instead of e2e
  bool tiny = false;      // smoke sizes (schema check, not a measurement)
  int omp_threads = 2;    // OpenMP team of the training worker
  int serve_workers = 2;  // RequestScheduler worker threads
  std::string out_dir;    // chrome traces and the full report go here
};

/// The fixed choices that make a workload.
struct Workload {
  std::string name;
  bool host_tables = false;  // three large tables in the parameter server
  bool serve_cache = false;  // warmed ServingCache in the serving phase
  double serve_share = 0.4;  // share of --seconds spent serving
};

/// Metrics, checks and run metadata; serialized as one JSON object.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void meta(const std::string& key, const std::string& value);
  void meta(const std::string& key, double value);
  /// A failed check makes the run incorrect and counts one failed operation.
  void check(const std::string& name, bool ok, const std::string& detail = "");
  void ops(std::uint64_t attempted, std::uint64_t failed);

  /// A reported metric's value; NaN when it was not reported.
  double value(const std::string& name) const;
  bool correct() const;
  std::string to_json(const std::string& workload) const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> meta_;  // values are JSON literals
  std::vector<Check> checks_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Wall time per layer, taken by the benchmark's own clock around calls into
/// a layer's public functions. Each timed call also records a span of the
/// same name, so the chrome trace shows the replay beside the program's own
/// spans. Names must be string literals (the span keeps the pointer).
class LayerClock {
 public:
  template <typename Fn>
  void time(const char* name, Fn&& fn) {
    elrec::obs::TraceSpan span(name);
    const auto t0 = Clock::now();
    fn();
    us_[name] += seconds_since(t0) * 1e6;
  }
  double us(const std::string& name) const;
  double total_us() const;

 private:
  std::map<std::string, double> us_;
};

/// Span time (µs) by name over every thread's trace ring, plus the events
/// lost to ring overflow. Read only while the recording threads are idle or
/// joined.
struct SpanTotals {
  std::map<std::string, double> us;
  std::uint64_t dropped = 0;

  double get_us(const std::string& name) const;
  void add(const SpanTotals& other);
};
SpanTotals collect_spans();

/// Current value of every registry counter.
using CounterValues = std::map<std::string, std::uint64_t>;
CounterValues counter_values();
std::uint64_t counter_delta(const CounterValues& before,
                            const CounterValues& after,
                            const std::string& name);

/// Order statistics with linear interpolation (numpy's default); 0 for an
/// empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
/// Inter-quartile range over the median (0 when the median is 0).
double relative_iqr(const std::vector<double>& v);

/// The process's peak resident set (VmHWM), in MiB.
double peak_rss_mb();

}  // namespace perfbench
