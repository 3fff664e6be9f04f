#include "hicond/la/vector_ops.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace hicond {
namespace {

TEST(VectorOps, DotAndNorm) {
  std::vector<double> x{3.0, 4.0};
  std::vector<double> y{1.0, 2.0};
  EXPECT_DOUBLE_EQ(la::dot(x, y), 11.0);
  EXPECT_DOUBLE_EQ(la::norm2(x), 5.0);
}

TEST(VectorOps, DotSizeMismatchThrows) {
  std::vector<double> x{1.0};
  std::vector<double> y{1.0, 2.0};
  EXPECT_THROW((void)la::dot(x, y), invalid_argument_error);
}

TEST(VectorOps, Axpy) {
  std::vector<double> x{1.0, 2.0, 3.0};
  std::vector<double> y{10.0, 20.0, 30.0};
  la::axpy(2.0, x, y);
  EXPECT_EQ(y, (std::vector<double>{12.0, 24.0, 36.0}));
}

TEST(VectorOps, ScaleCopyFill) {
  std::vector<double> x{2.0, 4.0};
  la::scale(0.5, x);
  EXPECT_EQ(x, (std::vector<double>{1.0, 2.0}));
  std::vector<double> y(2);
  la::copy(x, y);
  EXPECT_EQ(y, x);
  la::fill(y, 7.0);
  EXPECT_EQ(y, (std::vector<double>{7.0, 7.0}));
}

TEST(VectorOps, RemoveMean) {
  std::vector<double> x{1.0, 2.0, 3.0, 6.0};
  la::remove_mean(x);
  double sum = 0.0;
  for (double v : x) sum += v;
  EXPECT_NEAR(sum, 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(x[0], -2.0);
}

TEST(VectorOps, MaxAbsDiff) {
  std::vector<double> x{1.0, 2.0, 3.0};
  std::vector<double> y{1.5, 2.0, 1.0};
  EXPECT_DOUBLE_EQ(la::max_abs_diff(x, y), 2.0);
}

TEST(VectorOps, LargeVectorsParallelConsistency) {
  const std::size_t n = 200000;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = std::sin(0.001 * static_cast<double>(i));
  double expected = 0.0;
  for (double v : x) expected += v * v;
  EXPECT_NEAR(la::dot(x, x), expected, 1e-6);
}

}  // namespace
}  // namespace hicond
