#include "util/stats.h"

#include <gtest/gtest.h>

namespace crashsim {
namespace {

TEST(OnlineStatsTest, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(OnlineStatsTest, SingleValue) {
  OnlineStats s;
  s.Add(4.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.5);
  EXPECT_DOUBLE_EQ(s.min(), 4.5);
  EXPECT_DOUBLE_EQ(s.max(), 4.5);
}

TEST(OnlineStatsTest, KnownMeanAndVariance) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(PercentileNearestRankTest, KnownQuantilesOfHundredSamples) {
  std::vector<double> sorted;
  for (int i = 1; i <= 100; ++i) sorted.push_back(i);
  // Nearest rank = ceil(q * n), 1-based. p50 of 100 samples is the 50th
  // order statistic (sorted[49] == 50), not sorted[50] — the off-by-one the
  // old stress-report lambda had.
  EXPECT_DOUBLE_EQ(PercentileNearestRank(sorted, 0.50), 50.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(sorted, 0.95), 95.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(sorted, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(sorted, 0.999), 100.0);
}

TEST(PercentileNearestRankTest, NeverInterpolates) {
  const std::vector<double> sorted{1.0, 100.0};
  // ceil(0.5 * 2) = rank 1 -> the lower sample, never a blend of the two.
  EXPECT_DOUBLE_EQ(PercentileNearestRank(sorted, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(sorted, 0.51), 100.0);
}

TEST(PercentileNearestRankTest, SmallSamples) {
  EXPECT_DOUBLE_EQ(PercentileNearestRank({7.0}, 0.5), 7.0);
  const std::vector<double> five{10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(PercentileNearestRank(five, 0.20), 10.0);  // ceil(1.0)=1
  EXPECT_DOUBLE_EQ(PercentileNearestRank(five, 0.21), 20.0);  // ceil(1.05)=2
  EXPECT_DOUBLE_EQ(PercentileNearestRank(five, 0.50), 30.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(five, 0.99), 50.0);
}

TEST(PercentileNearestRankTest, EmptyAndExtremes) {
  EXPECT_EQ(PercentileNearestRank({}, 0.5), 0.0);
  const std::vector<double> sorted{2.0, 4.0, 6.0};
  EXPECT_DOUBLE_EQ(PercentileNearestRank(sorted, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(sorted, -1.0), 2.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(sorted, 1.0), 6.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(sorted, 2.0), 6.0);
}

}  // namespace
}  // namespace crashsim
