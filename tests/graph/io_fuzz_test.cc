// Adversarial inputs for the edge-list parsers: the loaders must reject
// malformed input with a useful Status (never crash, never silently accept),
// and accept every well-formed quirk (comments, blank lines, CRLF endings,
// weird whitespace).
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph_io.h"
#include "util/rng.h"

namespace crashsim {
namespace {

using Pairs = std::vector<std::pair<int64_t, int64_t>>;

Status ParseStatic(const std::string& content,
                   const EdgeListLimits& limits = {}) {
  std::istringstream in(content);
  return ReadEdgeList(in, limits).status();
}

Status ParseTemporal(const std::string& content) {
  std::istringstream in(content);
  return ReadTemporalEdgeList(in, /*undirected=*/false).status();
}

// The (src, dst) pairs of a static edge list that must parse.
Pairs StaticPairs(const std::string& content) {
  std::istringstream in(content);
  auto edges = ReadEdgeList(in);
  EXPECT_TRUE(edges.ok()) << edges.status();
  return edges.ok() ? *edges : Pairs{};
}

// A comment line that ends one byte before the first block boundary, so
// the next row starts in the first block and ends in the second.
std::string CommentUpToBlockBoundary() {
  constexpr size_t kBlock = size_t{64} << 10;
  return "#" + std::string(kBlock - 3, 'x') + "\n";
}

// Serves `text`, then fails the next read the way a device error does
// (istream turns the throw into badbit).
class FailingBuffer : public std::streambuf {
 public:
  explicit FailingBuffer(std::string text) : text_(std::move(text)) {
    setg(text_.data(), text_.data(), text_.data() + text_.size());
  }

 protected:
  int_type underflow() override { throw std::runtime_error("device error"); }

 private:
  std::string text_;
};

TEST(EdgeListFuzzTest, AcceptsWellFormedQuirks) {
  EXPECT_TRUE(ParseStatic("").ok());
  EXPECT_TRUE(ParseStatic("\n\n\n").ok());
  EXPECT_TRUE(ParseStatic("# only a comment\n").ok());
  EXPECT_TRUE(ParseStatic("% matrix-market style comment\n1 2\n").ok());
  EXPECT_TRUE(ParseStatic("1\t2\n").ok());       // tabs
  EXPECT_TRUE(ParseStatic("  1   2  \n").ok());  // padding
  EXPECT_TRUE(ParseStatic("1 2").ok());          // no trailing newline
  EXPECT_TRUE(ParseStatic("1 2\r\n3 4\r\n").ok());  // Windows CRLF
  // Integer syntax is base-10 strtoll's: a '+' sign, "-0", leading zeros
  // and INT64_MAX are ids.
  EXPECT_EQ(StaticPairs("+7 2\n"), (Pairs{{7, 2}}));
  EXPECT_EQ(StaticPairs("-0 007\n"), (Pairs{{0, 7}}));
  EXPECT_EQ(StaticPairs("9223372036854775807 1\n"),
            (Pairs{{INT64_MAX, 1}}));
  // Every C-locale isspace byte separates fields.
  EXPECT_EQ(StaticPairs("1\v2\n3\f4\n5\r6\n"),
            (Pairs{{1, 2}, {3, 4}, {5, 6}}));
  EXPECT_EQ(StaticPairs("1 2\n3 4"), (Pairs{{1, 2}, {3, 4}}));  // no final \n
  // A row straddling the 64 KiB read-block boundary, with and without a
  // final newline.
  EXPECT_EQ(StaticPairs(CommentUpToBlockBoundary() + "12 34\n5 6\n"),
            (Pairs{{12, 34}, {5, 6}}));
  EXPECT_EQ(StaticPairs(CommentUpToBlockBoundary() + "12 34"),
            (Pairs{{12, 34}}));
  // A line of exactly kMaxEdgeListLineBytes is accepted.
  EXPECT_EQ(StaticPairs("1 2" + std::string(kMaxEdgeListLineBytes - 3, ' ') +
                        "\n3 4\n"),
            (Pairs{{1, 2}, {3, 4}}));
  // The temporal format shares the reader.
  EXPECT_TRUE(ParseTemporal("+1 +2 +0\n-0 1 0\n").ok());
  EXPECT_TRUE(ParseTemporal("1\v2\f0\r\n2 3 1").ok());
  EXPECT_TRUE(ParseTemporal(CommentUpToBlockBoundary() + "1 2 0\n").ok());
}

TEST(EdgeListFuzzTest, ExtraColumnsAreOptIn) {
  // Strict by default: a weight/timestamp column is a column-count error...
  const Status strict = ParseStatic("1 2 extra columns\n");
  EXPECT_EQ(strict.code(), StatusCode::kInvalidArgument);
  // ...but SNAP exports with trailing columns load with the explicit opt-in.
  EdgeListLimits permissive;
  permissive.allow_extra_columns = true;
  EXPECT_TRUE(ParseStatic("1 2 extra columns\n", permissive).ok());
}

TEST(EdgeListFuzzTest, RejectsMalformedLines) {
  EXPECT_EQ(ParseStatic("1\n").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseStatic("one two\n").code(), StatusCode::kInvalidArgument);
  const Status s = ParseStatic("1 2\n3 x\n");
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("line 2"), std::string::npos);
  EXPECT_EQ(ParseStatic("1.5 2\n").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseStatic("99999999999999999999999999 1\n").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseStatic("-1 2\n").code(), StatusCode::kInvalidArgument);
  // Signs strtoll rejects, and INT64_MAX + 1.
  for (const char* bad : {"+-7 1\n", "++7 1\n", "-+7 1\n", "+ 7\n",
                          "9223372036854775808 1\n"}) {
    const Status b = ParseStatic(bad);
    EXPECT_EQ(b.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(b.message().find("line 1"), std::string::npos) << b;
  }
  EXPECT_NE(ParseStatic("++7 1\n").message().find("field 1 '++7'"),
            std::string::npos);
  // The bad row straddles the 64 KiB block boundary: its line number and
  // token survive the carry.
  const Status straddle = ParseStatic(CommentUpToBlockBoundary() + "12 3x\n");
  EXPECT_EQ(straddle.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(straddle.message().find("line 2: field 2 '3x'"), std::string::npos)
      << straddle;
  EXPECT_EQ(ParseTemporal("1 2 +-1\n").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseTemporal("1 2 9223372036854775808\n").code(),
            StatusCode::kInvalidArgument);
}

TEST(EdgeListFuzzTest, StreamFailureIsDataLoss) {
  {
    FailingBuffer buf("1 2\n3 4");
    std::istream in(&buf);
    EXPECT_EQ(ReadEdgeList(in).status().code(), StatusCode::kDataLoss);
  }
  {
    FailingBuffer buf("1 2 0\n3 4 0\n");
    std::istream in(&buf);
    EXPECT_EQ(ReadTemporalEdgeList(in, false).status().code(),
              StatusCode::kDataLoss);
  }
  {
    // A bad row read before the failure is reported first.
    FailingBuffer buf("1 2\n3 x\n");
    std::istream in(&buf);
    EXPECT_EQ(ReadEdgeList(in).status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(EdgeListFuzzTest, RandomByteSoupNeverCrashes) {
  Rng rng(99);
  const char kAlphabet[] = "0123456789 \t\n\r#%-.abcXYZ";
  for (int trial = 0; trial < 200; ++trial) {
    std::string soup;
    const int len = static_cast<int>(rng.NextBounded(200));
    for (int i = 0; i < len; ++i) {
      soup.push_back(kAlphabet[rng.NextBounded(sizeof(kAlphabet) - 1)]);
    }
    (void)ParseStatic(soup);  // outcome is input-dependent; no crash/UB
  }
}

TEST(EdgeListFuzzTest, RandomValidFilesAlwaysParse) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    std::ostringstream content;
    const int lines = 1 + static_cast<int>(rng.NextBounded(50));
    for (int i = 0; i < lines; ++i) {
      if (rng.Bernoulli(0.2)) {
        content << "# comment " << i << "\n";
      } else {
        content << rng.NextBounded(1000) << ' ' << rng.NextBounded(1000)
                << '\n';
      }
    }
    const Status s = ParseStatic(content.str());
    EXPECT_TRUE(s.ok()) << s;
  }
}

}  // namespace
}  // namespace crashsim
