#include "util/top_k.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace crashsim {
namespace {

TEST(TopKTest, KeepsLargestScores) {
  TopK<int> top(3);
  for (int i = 0; i < 10; ++i) top.Offer(static_cast<double>(i), i);
  const auto sorted = top.Sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].second, 9);
  EXPECT_EQ(sorted[1].second, 8);
  EXPECT_EQ(sorted[2].second, 7);
}

TEST(TopKTest, FewerThanKItems) {
  TopK<int> top(5);
  top.Offer(1.0, 10);
  top.Offer(2.0, 20);
  const auto sorted = top.Sorted();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0].second, 20);
}

TEST(TopKTest, ZeroKKeepsNothing) {
  TopK<int> top(0);
  top.Offer(5.0, 1);
  EXPECT_EQ(top.size(), 0u);
  EXPECT_TRUE(top.Sorted().empty());
}

TEST(TopKTest, TiesBreakTowardSmallerItem) {
  TopK<int> top(2);
  top.Offer(1.0, 3);
  top.Offer(1.0, 1);
  top.Offer(1.0, 2);
  const auto sorted = top.Sorted();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0].second, 1);
  EXPECT_EQ(sorted[1].second, 2);
}

TEST(TopKTest, MatchesFullSortOnRandomInput) {
  Rng rng(55);
  std::vector<std::pair<double, int>> all;
  TopK<int> top(10);
  for (int i = 0; i < 1000; ++i) {
    const double score = rng.NextDouble();
    all.emplace_back(score, i);
    top.Offer(score, i);
  }
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  const auto sorted = top.Sorted();
  ASSERT_EQ(sorted.size(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(sorted[i].second, all[i].second) << "rank " << i;
    EXPECT_DOUBLE_EQ(sorted[i].first, all[i].first);
  }
}

TEST(SelectTopKTest, SkipsTheExcludedIndex) {
  const std::vector<double> scores = {1.0, 0.2, 0.9, 0.2, 0.5};
  const auto top = SelectTopK(scores, /*exclude=*/0, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], std::make_pair(0.9, 2));
  EXPECT_EQ(top[1], std::make_pair(0.5, 4));
  EXPECT_EQ(top[2], std::make_pair(0.2, 1));  // tie: smaller index first

  // k beyond the n - 1 candidates returns every one but the excluded index,
  // best first, the smaller index first on ties.
  const std::vector<std::pair<double, int>> rest = {
      {1.0, 0}, {0.5, 4}, {0.2, 1}, {0.2, 3}};
  EXPECT_EQ(SelectTopK(scores, /*exclude=*/2, 10), rest);
  const std::vector<double> flat = {0.3, 0.3, 0.3, 0.3};
  const std::vector<std::pair<double, int>> first_two = {{0.3, 0}, {0.3, 2}};
  EXPECT_EQ(SelectTopK(flat, /*exclude=*/1, 2), first_two);
}

TEST(SelectTopKTest, MatchesTopKOverAllButTheExcluded) {
  Rng rng(7);
  std::vector<double> scores(500);
  for (double& s : scores) s = rng.NextDouble();
  TopK<int> reference(20);
  for (int i = 0; i < 500; ++i) {
    if (i != 13) reference.Offer(scores[static_cast<size_t>(i)], i);
  }
  EXPECT_EQ(SelectTopK(scores, 13, 20), reference.Sorted());
  EXPECT_EQ(SelectTopK(scores, 13, 1000).size(), 499u);
  EXPECT_TRUE(SelectTopK(scores, 13, 0).empty());
}

}  // namespace
}  // namespace crashsim
