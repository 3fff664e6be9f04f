#include "hicond/util/stats.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "hicond/util/common.hpp"

namespace hicond {
namespace {

TEST(OnlineStats, EmptyDefaults) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, SingleValue) {
  OnlineStats s;
  s.add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, KnownMoments) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

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

TEST(Histogram, BucketLayoutCoversRange) {
  const Histogram h(1.0, 16.0);
  EXPECT_EQ(h.num_buckets(), 4);  // [1,2) [2,4) [4,8) [8,16)
  EXPECT_DOUBLE_EQ(h.bucket_lower(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bucket_upper(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_lower(3), 8.0);
  EXPECT_DOUBLE_EQ(h.bucket_upper(3), 16.0);
}

TEST(Histogram, CountsLandInLogBuckets) {
  Histogram h(1.0, 16.0);
  h.add(1.5);
  h.add(3.0);
  h.add(3.5);
  h.add(10.0);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 0u);
  EXPECT_EQ(h.bucket_count(3), 1u);
}

TEST(Histogram, UnderflowAndOverflowClampToEdgeBuckets) {
  Histogram h(1.0, 16.0);
  h.add(0.001);   // below lo -> first bucket
  h.add(1000.0);  // above hi -> last bucket
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(h.num_buckets() - 1), 1u);
  // Welford stats still see the raw values.
  EXPECT_DOUBLE_EQ(h.stats().min(), 0.001);
  EXPECT_DOUBLE_EQ(h.stats().max(), 1000.0);
}

TEST(Histogram, QuantilesInterpolateAndClampToObservedRange) {
  Histogram h(1.0, 1024.0);
  for (int i = 0; i < 100; ++i) h.add(4.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 4.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 4.0);  // clamped to observed max
  h.add(64.0);
  const double q99 = h.quantile(0.99);
  EXPECT_GE(q99, 4.0);
  EXPECT_LE(q99, 64.0);
}

TEST(Histogram, RejectsBadConstructionAndEmptyQuantile) {
  EXPECT_THROW(Histogram(0.0, 1.0), invalid_argument_error);
  EXPECT_THROW(Histogram(2.0, 1.0), invalid_argument_error);
  const Histogram h;
  EXPECT_THROW((void)h.quantile(0.5), invalid_argument_error);
  Histogram filled;
  filled.add(1.0);
  EXPECT_THROW((void)filled.quantile(-0.1), invalid_argument_error);
  EXPECT_THROW((void)filled.quantile(1.1), invalid_argument_error);
}

}  // namespace
}  // namespace hicond
