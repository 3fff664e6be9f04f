// Parallel dense vector kernels used by the iterative solvers.
#pragma once

#include <span>
#include <vector>

#include "hicond/util/common.hpp"

namespace hicond::la {

[[nodiscard]] double dot(std::span<const double> x, std::span<const double> y);

[[nodiscard]] double norm2(std::span<const double> x);

/// y += alpha * x.
void axpy(double alpha, std::span<const double> x, std::span<double> y);

void scale(double alpha, std::span<double> x);

void copy(std::span<const double> src, std::span<double> dst);

void fill(std::span<double> x, double value);

/// Subtract the mean: projects onto the complement of the constant vector.
void remove_mean(std::span<double> x);

/// Max |x_i - y_i|.
[[nodiscard]] double max_abs_diff(std::span<const double> x,
                                  std::span<const double> y);

}  // namespace hicond::la
