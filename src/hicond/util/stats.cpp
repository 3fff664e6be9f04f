#include "hicond/util/stats.hpp"

#include <algorithm>
#include <vector>

#include "hicond/util/common.hpp"

namespace hicond {

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

}  // namespace hicond
