#include "hicond/util/stats.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "hicond/util/common.hpp"

namespace hicond {
namespace {

TEST(Percentile, MedianOfOddSample) {
  const std::vector<double> v{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 3.0);
}

TEST(Percentile, Extremes) {
  const std::vector<double> v{4.0, 2.0, 8.0, 6.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 8.0);
}

TEST(Percentile, Interpolates) {
  const std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.5);
}

TEST(Percentile, RejectsEmptyAndOutOfRange) {
  const std::vector<double> empty;
  EXPECT_THROW((void)percentile(empty, 50.0), invalid_argument_error);
  const std::vector<double> v{1.0};
  EXPECT_THROW((void)percentile(v, -1.0), invalid_argument_error);
  EXPECT_THROW((void)percentile(v, 101.0), invalid_argument_error);
}

}  // namespace
}  // namespace hicond
