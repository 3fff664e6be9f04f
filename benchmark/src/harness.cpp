#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include <omp.h>

#include "hicond/la/vector_ops.hpp"
#include "hicond/obs/json.hpp"
#include "hicond/util/common.hpp"
#include "hicond/util/parallel.hpp"
#include "hicond/util/rng.hpp"
#include "hicond/util/stats.hpp"
#include "hicond/util/timer.hpp"

namespace bench {

namespace {

const hicond::Timer& process_clock() {
  static const hicond::Timer clock;
  return clock;
}

// Started during static initialization so now_s() counts from process start.
[[maybe_unused]] const hicond::Timer& g_clock_started = process_clock();

constexpr std::size_t kMaxFailureMessages = 20;

}  // namespace

double now_s() { return process_clock().seconds(); }

double Samples::pct(double p) const {
  return values.empty() ? 0.0 : hicond::percentile(values, p);
}

double Samples::sum() const {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double Samples::mean() const {
  return values.empty() ? 0.0 : sum() / static_cast<double>(values.size());
}

double Samples::tail_pct(double max_pct) const {
  const auto n = static_cast<double>(values.size());
  for (const double p : {99.0, 95.0, 90.0, 75.0}) {
    if (p <= max_pct && n * (100.0 - p) / 100.0 >= 10.0) return p;
  }
  return 50.0;
}

void CheckLog::fail(std::string what) {
  ++failed;
  if (messages.size() < kMaxFailureMessages) {
    messages.push_back(std::move(what));
  }
}

void Report::set(std::string_view name, double value, std::string_view unit,
                 std::size_t samples) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m = {std::string(name), value, std::string(unit), samples};
      return;
    }
  }
  metrics_.push_back({std::string(name), value, std::string(unit), samples});
}

void Report::info(std::string_view key, std::string value) {
  infos_.emplace_back(std::string(key), std::move(value));
}

void report_latency(Report& report, const Samples& ms, double max_pct) {
  const double tail = ms.tail_pct(max_pct);
  report.set("latency_p50_ms", ms.median(), "ms", ms.count());
  report.set("latency_tail_ms", ms.pct(tail), "ms", ms.count());
  std::string label = "p";
  label += std::to_string(static_cast<int>(tail));
  report.info("latency_tail", std::move(label));
}

// --- spans -----------------------------------------------------------------

SpanRecorder& SpanRecorder::global() {
  static SpanRecorder recorder;
  return recorder;
}

int SpanRecorder::open(std::string_view name) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(
      {std::string(name), now_s(), -1.0, stack_.empty() ? -1 : stack_.back(),
       -1});
  stack_.push_back(id);
  return id;
}

void SpanRecorder::finish(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end = now_s();
  // Spans close in LIFO order (ScopedSpan); tolerate anything else by
  // unwinding to the closed span.
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == id) break;
  }
}

void SpanRecorder::request(std::string_view name, std::int64_t request_id,
                           double start, double end) {
  if (!enabled_) return;
  spans_.push_back({std::string(name), start, end,
                    stack_.empty() ? -1 : stack_.back(), request_id});
}

std::string SpanRecorder::chrome_json() const {
  hicond::obs::JsonWriter w;
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents").begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double end = s.end < 0.0 ? now_s() : s.end;
    const auto emit = [&](const char* phase, double ts) {
      w.begin_object();
      w.kv("name", s.name);
      w.kv("ph", phase);
      w.kv("ts", ts * 1e6);
      w.kv("pid", 1);
      if (s.request_id >= 0) {
        w.kv("cat", "request");
        w.kv("id", s.request_id);
        w.kv("tid", 2);
      } else {
        w.kv("tid", 1);
      }
      if (phase[0] == 'X') w.kv("dur", (end - s.start) * 1e6);
      w.key("args").begin_object();
      w.kv("span", static_cast<std::int64_t>(i));
      w.kv("parent", s.parent);
      if (s.request_id >= 0) w.kv("request_id", s.request_id);
      w.end_object();
      w.end_object();
    };
    if (s.request_id >= 0) {
      emit("b", s.start);
      emit("e", end);
    } else {
      emit("X", s.start);
    }
  }
  w.end_array();
  w.end_object();
  return w.str();
}

ScopedSpan::ScopedSpan(std::string_view name)
    : id_(SpanRecorder::global().open(name)), start_(now_s()) {}

ScopedSpan::~ScopedSpan() { SpanRecorder::global().finish(id_); }

ThreadScope::ThreadScope(int threads) : saved_(omp_get_max_threads()) {
  omp_set_num_threads(threads);
}

ThreadScope::~ThreadScope() { omp_set_num_threads(saved_); }

void run_checks(std::vector<Check>& checks, CheckLog& log) {
  const ScopedSpan span("output checks");
  // Single-threaded: the checks alternate parsing with tiny SpMVs, where a
  // team would only spin between regions.
  const ThreadScope one(1);
  for (Check& check : checks) {
    try {
      check(log);
    } catch (const std::exception& e) {
      log.fail(std::string("output check threw: ") + e.what());
    }
  }
  checks.clear();
}

// --- numerics helpers --------------------------------------------------------

double relative_residual(const hicond::Graph& g, std::span<const double> x,
                         std::span<const double> b) {
  std::vector<double> r(b.size());
  g.laplacian_apply(x, r);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] -= b[i];
  const double nb = hicond::la::norm2(b);
  return nb > 0.0 ? hicond::la::norm2(r) / nb : hicond::la::norm2(r);
}

std::vector<double> random_rhs(std::size_t n, std::uint64_t seed) {
  hicond::Rng rng(seed);
  std::vector<double> b(n);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  hicond::la::remove_mean(b);
  return b;
}

std::uint64_t derive_seed(std::uint64_t run_seed, std::uint64_t stream) {
  return hicond::counter_u64(run_seed, stream);
}

// --- machine -----------------------------------------------------------------

namespace {

rusage usage_of(int who) {
  rusage usage{};
  HICOND_CHECK(::getrusage(who, &usage) == 0, "getrusage failed");
  return usage;
}

double maxrss_mb(int who) {
  return static_cast<double>(usage_of(who).ru_maxrss) / 1024.0;  // KiB
}

}  // namespace

std::int64_t minor_faults() { return usage_of(RUSAGE_SELF).ru_minflt; }

double peak_rss_self_mb() { return maxrss_mb(RUSAGE_SELF); }
double peak_rss_children_mb() { return maxrss_mb(RUSAGE_CHILDREN); }

int library_threads() { return std::max(1, std::min(omp_get_num_procs(), 4)); }

std::size_t llc_bytes() {
  for (const int name : {_SC_LEVEL4_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE,
                         _SC_LEVEL2_CACHE_SIZE}) {
    const long size = ::sysconf(name);
    if (size > 0) return static_cast<std::size_t>(size);
  }
  return 0;
}

double triad_gbps(std::size_t array_bytes) {
  const std::size_t n = array_bytes / sizeof(double);
  // Uninitialized storage, first touched by the same parallel schedule the
  // triad uses, so pages land where their threads run.
  const auto a = std::make_unique_for_overwrite<double[]>(n);
  const auto b = std::make_unique_for_overwrite<double[]>(n);
  const auto c = std::make_unique_for_overwrite<double[]>(n);
  hicond::parallel_for(n, [&](std::size_t i) {
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  });
  double best = 1e300;
  for (int pass = 0; pass < 5; ++pass) {
    const double t0 = now_s();
    hicond::parallel_for(n, [&](std::size_t i) { a[i] = b[i] + 3.0 * c[i]; });
    best = std::min(best, now_s() - t0);
  }
  // Consume the result so the passes cannot be dropped.
  volatile double sink = a[n / 2];
  (void)sink;
  return 3.0 * static_cast<double>(n * sizeof(double)) / best / 1e9;
}

}  // namespace bench
