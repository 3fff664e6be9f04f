// Small statistics helpers used by validation reports and benchmarks.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace hicond {

/// Streaming min/max/mean/variance accumulator (Welford).
class OnlineStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 1e300;
  double max_ = -1e300;
};

/// p-th percentile (p in [0,100]) by linear interpolation on a copy.
/// Rejects empty input (invalid_argument_error), never reads past the span.
[[nodiscard]] double percentile(std::span<const double> values, double p);

/// Log-bucketed histogram over positive magnitudes (latencies, sizes, phi
/// values, ...). Bucket i covers [lo * 2^i, lo * 2^(i+1)); values below `lo`
/// (including non-positive ones) land in bucket 0, values at or above `hi`
/// in the last bucket. Exact min/max/mean/stddev are carried by an embedded
/// OnlineStats, so the log buckets only pay for the quantile estimates.
class Histogram {
 public:
  /// Bucket layout spanning [lo, hi); requires 0 < lo < hi.
  explicit Histogram(double lo = 1e-9, double hi = 1e3);

  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return stats_.count(); }
  [[nodiscard]] const OnlineStats& stats() const noexcept { return stats_; }

  [[nodiscard]] int num_buckets() const noexcept {
    return static_cast<int>(buckets_.size());
  }
  [[nodiscard]] std::size_t bucket_count(int i) const {
    return buckets_[static_cast<std::size_t>(i)];
  }
  /// Lower / upper bound of bucket i's value range.
  [[nodiscard]] double bucket_lower(int i) const noexcept;
  [[nodiscard]] double bucket_upper(int i) const noexcept;

  /// Quantile estimate (q in [0,1]) by geometric interpolation inside the
  /// bucket containing the q-th sample; clamped to the exact observed
  /// [min, max]. Rejects an empty histogram (invalid_argument_error).
  [[nodiscard]] double quantile(double q) const;

 private:
  [[nodiscard]] int bucket_index(double x) const noexcept;

  double lo_;
  double hi_;
  std::vector<std::size_t> buckets_;
  OnlineStats stats_;
};

}  // namespace hicond
