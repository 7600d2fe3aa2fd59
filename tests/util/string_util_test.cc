#include "util/string_util.h"

#include <cstdint>

#include <gtest/gtest.h>

namespace crashsim {
namespace {

TEST(SplitTest, BasicSplit) {
  const auto parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitTest, EmptyFieldsPreserved) {
  const auto parts = Split(",x,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "x");
  EXPECT_EQ(parts[2], "");
}

TEST(SplitTest, NoDelimiter) {
  const auto parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(TrimTest, TrimsBothEnds) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("hi"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t\n "), "");
}

TEST(StartsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("--flag", "--"));
  EXPECT_FALSE(StartsWith("-flag", "--"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_FALSE(StartsWith("a", "ab"));
}

TEST(ParseInt64Test, ValidInputs) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(ParseInt64("-7", &v));
  EXPECT_EQ(v, -7);
  EXPECT_TRUE(ParseInt64("  13  ", &v));
  EXPECT_EQ(v, 13);
  // The strtoll language: a leading '+', "-0" and both int64 extremes.
  EXPECT_TRUE(ParseInt64("+7", &v));
  EXPECT_EQ(v, 7);
  EXPECT_TRUE(ParseInt64("-0", &v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(ParseInt64("007", &v));
  EXPECT_EQ(v, 7);
  EXPECT_TRUE(ParseInt64("9223372036854775807", &v));
  EXPECT_EQ(v, INT64_MAX);
  EXPECT_TRUE(ParseInt64("-9223372036854775808", &v));
  EXPECT_EQ(v, INT64_MIN);
}

TEST(ParseInt64Test, RejectsGarbage) {
  int64_t v = 0;
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("12x", &v));
  EXPECT_FALSE(ParseInt64("x12", &v));
  EXPECT_FALSE(ParseInt64("1 2", &v));
  EXPECT_FALSE(ParseInt64("99999999999999999999999", &v));
  EXPECT_FALSE(ParseInt64("9223372036854775808", &v));
  EXPECT_FALSE(ParseInt64("-9223372036854775809", &v));
  EXPECT_FALSE(ParseInt64("+-7", &v));
  EXPECT_FALSE(ParseInt64("++7", &v));
  EXPECT_FALSE(ParseInt64("-+7", &v));
  EXPECT_FALSE(ParseInt64("+", &v));
  EXPECT_FALSE(ParseInt64("-", &v));
  EXPECT_FALSE(ParseInt64("+ 7", &v));
  EXPECT_FALSE(ParseInt64("0x10", &v));
}

TEST(ParseDoubleTest, ValidInputs) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("0.025", &v));
  EXPECT_DOUBLE_EQ(v, 0.025);
  EXPECT_TRUE(ParseDouble("-1e3", &v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
}

TEST(ParseDoubleTest, RejectsGarbage) {
  double v = 0;
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("1.2.3", &v));
  EXPECT_FALSE(ParseDouble("abc", &v));
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(StrFormat("%.3f", 0.5), "0.500");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(WithThousandsTest, GroupsDigits) {
  EXPECT_EQ(WithThousands(0), "0");
  EXPECT_EQ(WithThousands(999), "999");
  EXPECT_EQ(WithThousands(1000), "1,000");
  EXPECT_EQ(WithThousands(12345678), "12,345,678");
  EXPECT_EQ(WithThousands(-1234), "-1,234");
}

}  // namespace
}  // namespace crashsim
