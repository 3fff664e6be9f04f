#include "hicond/la/vector_ops.hpp"

#include <algorithm>
#include <cmath>

#include "hicond/util/parallel.hpp"

namespace hicond::la {

double dot(std::span<const double> x, std::span<const double> y) {
  HICOND_CHECK(x.size() == y.size(), "dot size mismatch");
  return parallel_sum(x.size(), [&](std::size_t i) { return x[i] * y[i]; });
}

double norm2(std::span<const double> x) { return std::sqrt(dot(x, x)); }

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  HICOND_CHECK(x.size() == y.size(), "axpy size mismatch");
  parallel_for(x.size(), [&](std::size_t i) { y[i] += alpha * x[i]; });
}

void scale(double alpha, std::span<double> x) {
  parallel_for(x.size(), [&](std::size_t i) { x[i] *= alpha; });
}

void copy(std::span<const double> src, std::span<double> dst) {
  HICOND_CHECK(src.size() == dst.size(), "copy size mismatch");
  parallel_for(src.size(), [&](std::size_t i) { dst[i] = src[i]; });
}

void fill(std::span<double> x, double value) {
  parallel_for(x.size(), [&](std::size_t i) { x[i] = value; });
}

void remove_mean(std::span<double> x) {
  if (x.empty()) return;
  const double mean =
      parallel_sum(x.size(), [&](std::size_t i) { return x[i]; }) /
      static_cast<double>(x.size());
  parallel_for(x.size(), [&](std::size_t i) { x[i] -= mean; });
}

double max_abs_diff(std::span<const double> x, std::span<const double> y) {
  HICOND_CHECK(x.size() == y.size(), "size mismatch");
  return parallel_max(x.size(), 0.0, [&](std::size_t i) {
    return std::abs(x[i] - y[i]);
  });
}

}  // namespace hicond::la
