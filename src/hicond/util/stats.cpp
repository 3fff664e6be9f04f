#include "hicond/util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "hicond/util/common.hpp"

namespace hicond {

void OnlineStats::add(double x) noexcept {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double OnlineStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double OnlineStats::stddev() const noexcept { return std::sqrt(variance()); }

double percentile(std::span<const double> values, double p) {
  HICOND_CHECK(!values.empty(), "percentile of empty sample");
  HICOND_CHECK(p >= 0.0 && p <= 100.0, "percentile out of range");
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const double pos = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Histogram::Histogram(double lo, double hi) : lo_(lo), hi_(hi) {
  HICOND_CHECK(lo > 0.0 && hi > lo, "Histogram requires 0 < lo < hi");
  const int n = static_cast<int>(std::ceil(std::log2(hi / lo)));
  buckets_.assign(static_cast<std::size_t>(std::max(n, 1)), 0);
}

int Histogram::bucket_index(double x) const noexcept {
  if (!(x > lo_)) return 0;
  const int i = static_cast<int>(std::floor(std::log2(x / lo_)));
  return std::clamp(i, 0, num_buckets() - 1);
}

void Histogram::add(double x) noexcept {
  ++buckets_[static_cast<std::size_t>(bucket_index(x))];
  stats_.add(x);
}

double Histogram::bucket_lower(int i) const noexcept {
  return lo_ * std::exp2(static_cast<double>(i));
}

double Histogram::bucket_upper(int i) const noexcept {
  return i + 1 == num_buckets() ? hi_
                                : lo_ * std::exp2(static_cast<double>(i + 1));
}

double Histogram::quantile(double q) const {
  HICOND_CHECK(count() > 0, "quantile of empty histogram");
  HICOND_CHECK(q >= 0.0 && q <= 1.0, "quantile out of range");
  const double target = q * static_cast<double>(count());
  double cumulative = 0.0;
  for (int i = 0; i < num_buckets(); ++i) {
    const double in_bucket = static_cast<double>(bucket_count(i));
    if (cumulative + in_bucket >= target && in_bucket > 0.0) {
      // Geometric interpolation: the bucket spans one octave.
      const double frac = std::clamp(
          in_bucket > 0.0 ? (target - cumulative) / in_bucket : 0.0, 0.0, 1.0);
      const double value = bucket_lower(i) * std::exp2(frac);
      return std::clamp(value, stats_.min(), stats_.max());
    }
    cumulative += in_bucket;
  }
  return stats_.max();
}

}  // namespace hicond
