#include "core/temporal_query.h"

#include <gtest/gtest.h>

namespace crashsim {
namespace {

TemporalQuery ThresholdQuery(double theta) {
  TemporalQuery q;
  q.kind = TemporalQueryKind::kThreshold;
  q.source = 0;
  q.theta = theta;
  return q;
}

TemporalQuery TrendQuery(TemporalQueryKind kind, double tol = 0.0) {
  TemporalQuery q;
  q.kind = kind;
  q.source = 0;
  q.trend_tolerance = tol;
  return q;
}

TEST(TemporalStepTest, ThresholdIsStrict) {
  const TemporalQuery q = ThresholdQuery(0.5);
  EXPECT_TRUE(TemporalStepSatisfied(q, true, 0.0, 0.6));
  EXPECT_FALSE(TemporalStepSatisfied(q, true, 0.0, 0.5));  // > not >=
  EXPECT_FALSE(TemporalStepSatisfied(q, false, 0.9, 0.4));
}

TEST(TemporalStepTest, TrendIncreasingFirstAlwaysPasses) {
  const TemporalQuery q = TrendQuery(TemporalQueryKind::kTrendIncreasing);
  EXPECT_TRUE(TemporalStepSatisfied(q, true, 0.0, 0.0));
  EXPECT_TRUE(TemporalStepSatisfied(q, true, 0.9, 0.1));
}

TEST(TemporalStepTest, TrendIncreasingNonStrict) {
  const TemporalQuery q = TrendQuery(TemporalQueryKind::kTrendIncreasing);
  EXPECT_TRUE(TemporalStepSatisfied(q, false, 0.3, 0.3));
  EXPECT_TRUE(TemporalStepSatisfied(q, false, 0.3, 0.4));
  EXPECT_FALSE(TemporalStepSatisfied(q, false, 0.3, 0.29));
}

TEST(TemporalStepTest, TrendToleranceAbsorbsNoise) {
  const TemporalQuery q =
      TrendQuery(TemporalQueryKind::kTrendIncreasing, 0.05);
  EXPECT_TRUE(TemporalStepSatisfied(q, false, 0.3, 0.26));
  EXPECT_FALSE(TemporalStepSatisfied(q, false, 0.3, 0.24));
}

TEST(TemporalStepTest, TrendDecreasingMirrorsIncreasing) {
  const TemporalQuery q = TrendQuery(TemporalQueryKind::kTrendDecreasing);
  EXPECT_TRUE(TemporalStepSatisfied(q, false, 0.3, 0.3));
  EXPECT_TRUE(TemporalStepSatisfied(q, false, 0.3, 0.2));
  EXPECT_FALSE(TemporalStepSatisfied(q, false, 0.3, 0.31));
}

TEST(TemporalQueryKindTest, Names) {
  EXPECT_STREQ(ToString(TemporalQueryKind::kThreshold), "threshold");
  EXPECT_STREQ(ToString(TemporalQueryKind::kTrendIncreasing),
               "trend-increasing");
  EXPECT_STREQ(ToString(TemporalQueryKind::kTrendDecreasing),
               "trend-decreasing");
}

TEST(CandidateFilterTest, StartsWithAllButSource) {
  TemporalQuery q = ThresholdQuery(0.5);
  q.source = 2;
  CandidateFilter filter(q, 5);
  EXPECT_EQ(filter.candidates(), (std::vector<NodeId>{0, 1, 3, 4}));
}

TEST(CandidateFilterTest, ThresholdDropsBelow) {
  CandidateFilter filter(ThresholdQuery(0.5), 4);  // candidates 1,2,3
  const size_t dropped = filter.Observe({0.6, 0.4, 0.9});
  EXPECT_EQ(dropped, 1u);
  EXPECT_EQ(filter.candidates(), (std::vector<NodeId>{1, 3}));
  EXPECT_DOUBLE_EQ(filter.previous_score(1), 0.6);
  EXPECT_DOUBLE_EQ(filter.previous_score(3), 0.9);
}

TEST(CandidateFilterTest, TrendTracksPreviousScores) {
  CandidateFilter filter(
      TrendQuery(TemporalQueryKind::kTrendIncreasing), 4);
  filter.Observe({0.2, 0.5, 0.1});   // first: all pass
  EXPECT_EQ(filter.size(), 3u);
  filter.Observe({0.3, 0.4, 0.1});   // node 2 decreased -> dropped
  EXPECT_EQ(filter.candidates(), (std::vector<NodeId>{1, 3}));
  filter.Observe({0.3, 0.05});       // node 3 decreased -> dropped
  EXPECT_EQ(filter.candidates(), (std::vector<NodeId>{1}));
}

TEST(CandidateFilterTest, CandidatesOnlyShrink) {
  CandidateFilter filter(ThresholdQuery(0.5), 6);
  size_t prev = filter.size();
  const std::vector<std::vector<double>> rounds{
      {0.9, 0.9, 0.2, 0.9, 0.9},
      {0.9, 0.1, 0.9, 0.9},
      {0.9, 0.9, 0.1},
  };
  for (const auto& r : rounds) {
    filter.Observe(r);
    EXPECT_LE(filter.size(), prev);
    prev = filter.size();
  }
  EXPECT_EQ(filter.size(), 2u);
}

TEST(CandidateFilterTest, EmptyAfterTotalWipe) {
  CandidateFilter filter(ThresholdQuery(0.99), 3);
  filter.Observe({0.5, 0.5});
  EXPECT_TRUE(filter.candidates().empty());
  filter.Observe({});
  EXPECT_TRUE(filter.candidates().empty());
}

TEST(TemporalQueryKindTest, ParsesTheThreeNames) {
  EXPECT_EQ(*ParseTemporalQueryKind("threshold"),
            TemporalQueryKind::kThreshold);
  EXPECT_EQ(*ParseTemporalQueryKind("increasing"),
            TemporalQueryKind::kTrendIncreasing);
  EXPECT_EQ(*ParseTemporalQueryKind("decreasing"),
            TemporalQueryKind::kTrendDecreasing);
  const StatusOr<TemporalQueryKind> bad =
      ParseTemporalQueryKind("trend-increasing");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.status().message(),
            "unknown kind 'trend-increasing' "
            "(threshold | increasing | decreasing)");
}

TEST(ResolveEndSnapshotTest, NegativeMeansTheLastSnapshot) {
  EXPECT_EQ(ResolveEndSnapshot(-1, 5), 4);
  EXPECT_EQ(ResolveEndSnapshot(-7, 5), 4);
  EXPECT_EQ(ResolveEndSnapshot(0, 5), 0);
  EXPECT_EQ(ResolveEndSnapshot(9, 5), 9);  // range is the validator's job
}

}  // namespace
}  // namespace crashsim
