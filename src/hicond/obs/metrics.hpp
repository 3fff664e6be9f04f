// Metrics registry: named counters, gauges and log-bucketed histograms with
// JSON export.
//
// Instrumentation sites at phase boundaries (a hierarchy build, a CG solve,
// a preconditioner construction) record into the process-wide registry;
// consumers (today, the tests) snapshot it as JSON.
// Every operation takes the registry mutex, so recording is safe from any
// thread but is NOT meant for per-iteration hot loops -- time those with
// scoped spans (obs/trace.hpp) or util/timer instead.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "hicond/util/stats.hpp"
#include "hicond/util/thread_annotations.hpp"

namespace hicond::obs {

class MetricsRegistry {
 public:
  /// The process-wide registry used by the library's instrumentation.
  [[nodiscard]] static MetricsRegistry& global();

  /// Monotonic counter (created at 0 on first use).
  void counter_add(std::string_view name, std::int64_t delta = 1);
  [[nodiscard]] std::int64_t counter(std::string_view name) const;

  /// Last-write-wins gauge.
  void gauge_set(std::string_view name, double value);
  [[nodiscard]] double gauge(std::string_view name) const;

  /// Record one sample into the named log-bucketed histogram (created with
  /// the default Histogram bucket layout on first use).
  void histogram_record(std::string_view name, double value);
  /// Snapshot copy of a histogram; count() == 0 when never recorded.
  [[nodiscard]] Histogram histogram(std::string_view name) const;

  /// Remove every metric (tests / between benchmark cases).
  void clear();

  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,mean,min,
  /// max,p50,p90,p99,buckets:[{lo,hi,count},...]}}} -- buckets with zero
  /// count are omitted.
  [[nodiscard]] std::string to_json() const;

 private:
  mutable Mutex mu_;
  std::map<std::string, std::int64_t, std::less<>> counters_
      HICOND_GUARDED_BY(mu_);
  std::map<std::string, double, std::less<>> gauges_ HICOND_GUARDED_BY(mu_);
  std::map<std::string, Histogram, std::less<>> histograms_
      HICOND_GUARDED_BY(mu_);
};

}  // namespace hicond::obs
