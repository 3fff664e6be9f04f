// Shared plumbing of hicond_workloads: the one clock, sample sets, the
// run report, the benchmark's own span recorder (written as Chrome trace
// JSON), deferred output checks, and machine measurements.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "hicond/graph/graph.hpp"

namespace bench {

/// Seconds since the process started. Every timestamp the benchmark takes
/// (samples, open-loop due times, span bounds) reads this one util/timer
/// clock.
[[nodiscard]] double now_s();

/// A set of timings or counts; percentiles interpolate linearly.
struct Samples {
  std::vector<double> values;

  void add(double v) { values.push_back(v); }
  [[nodiscard]] std::size_t count() const noexcept { return values.size(); }
  /// p in [0, 100]; 0 for an empty set.
  [[nodiscard]] double pct(double p) const;
  [[nodiscard]] double median() const { return pct(50.0); }
  [[nodiscard]] double sum() const;
  [[nodiscard]] double mean() const;
  /// The highest of p99, p95, p90 and p75 that is at most `max_pct` and has
  /// at least ten samples beyond it; 50 when none has.
  [[nodiscard]] double tail_pct(double max_pct) const;
};

/// Failed operations and why, capped so a systematic failure cannot flood
/// the output.
struct CheckLog {
  std::int64_t failed = 0;
  std::vector<std::string> messages;

  void fail(std::string what);
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< 0 when the value is not a sample statistic
};

/// Everything one run reports.
class Report {
 public:
  /// Add or overwrite a metric (names keep first-set order).
  void set(std::string_view name, double value, std::string_view unit,
           std::size_t samples = 0);
  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept {
    return metrics_;
  }

  /// Run descriptors written beside the metrics (percentile choices, input
  /// sizes, rates).
  void info(std::string_view key, std::string value);
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
  infos() const noexcept {
    return infos_;
  }

  std::int64_t attempted = 0;
  CheckLog checks;  ///< failed operations

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> infos_;
};

/// latency_p50_ms and latency_tail_ms of `ms` (milliseconds). The tail is
/// the percentile ms.tail_pct(max_pct), named in the info `latency_tail`.
void report_latency(Report& report, const Samples& ms, double max_pct);

/// The benchmark's own spans: name, start, end, parent and (for requests)
/// the request id, kept in memory and written as Chrome trace JSON when the
/// run ends. Recording is off unless the run is traced; only the main
/// thread records.
class SpanRecorder {
 public:
  static SpanRecorder& global();

  void enable() noexcept { enabled_ = true; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Open a synchronous span nested in the innermost open one; returns its
  /// id (-1 when recording is off).
  int open(std::string_view name);
  void finish(int id);

  /// A request's lifetime from `start` to `end` (now_s() seconds); its
  /// parent is the innermost open span. Requests overlap, so they are
  /// written as async events on their own track.
  void request(std::string_view name, std::int64_t request_id, double start,
               double end);

  [[nodiscard]] std::string chrome_json() const;

 private:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = -1.0;
    int parent = -1;
    std::int64_t request_id = -1;
  };
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span around one call into a layer; measures its wall time whether
/// or not recording is on.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] double seconds() const { return now_s() - start_; }

 private:
  int id_;
  double start_;
};

/// Time `fn` under a span named `name`; returns the wall seconds.
template <typename Fn>
double timed(std::string_view name, Fn&& fn) {
  ScopedSpan span(name);
  fn();
  return span.seconds();
}

/// Sets the OpenMP team size for a scope, restoring the previous one.
class ThreadScope {
 public:
  explicit ThreadScope(int threads);
  ~ThreadScope();
  ThreadScope(const ThreadScope&) = delete;
  ThreadScope& operator=(const ThreadScope&) = delete;

 private:
  int saved_;
};

/// An output check, deferred until the measured phase that produced the
/// output has ended so that parsing responses and recomputing residuals
/// never competes with the system under test.
using Check = std::function<void(CheckLog&)>;

/// Run `checks` in order on one thread (each may throw: that is a failed
/// check), then clear them.
void run_checks(std::vector<Check>& checks, CheckLog& log);

/// ||L x - b|| / ||b|| on g.
[[nodiscard]] double relative_residual(const hicond::Graph& g,
                                       std::span<const double> x,
                                       std::span<const double> b);

/// Mean-free uniform(-1, 1) right-hand side, a pure function of (n, seed).
[[nodiscard]] std::vector<double> random_rhs(std::size_t n,
                                             std::uint64_t seed);

/// Deterministic 64-bit seed for a named stream of the run seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t run_seed,
                                        std::uint64_t stream);

/// Minor page faults this process has taken so far.
[[nodiscard]] std::int64_t minor_faults();

/// Peak resident set of this process / of its reaped descendants, in MB.
[[nodiscard]] double peak_rss_self_mb();
[[nodiscard]] double peak_rss_children_mb();

/// OpenMP threads the library workloads use: min(nproc, 4).
[[nodiscard]] int library_threads();

/// Last-level cache size as sysconf reports it (0 when unknown).
[[nodiscard]] std::size_t llc_bytes();

/// STREAM-style triad a = b + s c over three arrays of `array_bytes` each,
/// on the current OpenMP team; best of five passes, in GB/s (3 arrays'
/// bytes per pass).
[[nodiscard]] double triad_gbps(std::size_t array_bytes);

}  // namespace bench
