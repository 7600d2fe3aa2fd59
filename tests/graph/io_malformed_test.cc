// Satellite hardening table: every adversarial edge-list input must come
// back as a descriptive Status — with the right code and a line-number
// diagnostic — never a crash, never a silent accept.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/graph_io.h"
#include "util/failpoint.h"

namespace crashsim {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& content) {
    path_ = testing::TempDir() + "/crashsim_malformed_" +
            std::to_string(counter_++) + ".txt";
    std::ofstream out(path_, std::ios::binary);  // binary: keep CRLF intact
    out << content;
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  static int counter_;
  std::string path_;
};

int TempFile::counter_ = 0;

struct MalformedCase {
  const char* name;
  const char* content;
  bool temporal;
  StatusCode expected_code;
  const char* message_substring;
};

TEST(MalformedInputTest, EveryRowOfTheTableFailsDescriptively) {
  // One byte past the line limit: a row ended by '\n', and a final comment
  // without one (rejected while buffered, before the end of input).
  const std::string overlong_static =
      "1 2\n" + std::string(kMaxEdgeListLineBytes + 1, '1') + "\n";
  const std::string overlong_temporal =
      "1 2 0\n" + std::string(kMaxEdgeListLineBytes + 1, '%');
  const std::vector<MalformedCase> kTable = {
      {"static-int64-overflow", "1 2\n99999999999999999999999999 3\n", false,
       StatusCode::kInvalidArgument, "line 2"},
      {"static-negative-src", "-7 2\n", false, StatusCode::kInvalidArgument,
       "negative node id -7"},
      {"static-negative-dst", "2 -9\n", false, StatusCode::kInvalidArgument,
       "negative node id -9"},
      {"static-three-columns", "1 2 3\n", false, StatusCode::kInvalidArgument,
       "expected 'src dst'"},
      {"static-one-column", "42\n", false, StatusCode::kInvalidArgument,
       "got 1 field"},
      {"static-float-id", "1.5 2\n", false, StatusCode::kInvalidArgument,
       "not a valid 64-bit integer"},
      {"temporal-negative-snapshot", "1 2 -1\n", true,
       StatusCode::kInvalidArgument, "negative snapshot index -1"},
      {"temporal-int64-overflow-snapshot", "1 2 99999999999999999999999999\n",
       true, StatusCode::kInvalidArgument, "line 1"},
      {"temporal-two-columns", "1 2\n", true, StatusCode::kInvalidArgument,
       "expected 'src dst snapshot'"},
      {"temporal-four-columns", "1 2 3 4\n", true,
       StatusCode::kInvalidArgument, "got 4 fields"},
      {"temporal-empty", "", true, StatusCode::kInvalidArgument,
       "no snapshots"},
      {"temporal-only-comments", "# nothing\n% here\n", true,
       StatusCode::kInvalidArgument, "no snapshots"},
      {"temporal-negative-node", "1 -2 0\n", true,
       StatusCode::kInvalidArgument, "negative node id -2"},
      {"static-line-too-long", overlong_static.c_str(), false,
       StatusCode::kInvalidArgument, "line 2: longer than 65536 bytes"},
      {"temporal-line-too-long", overlong_temporal.c_str(), true,
       StatusCode::kInvalidArgument, "line 2: longer than 65536 bytes"},
  };
  for (const MalformedCase& c : kTable) {
    TempFile f(c.content);
    const Status s =
        c.temporal ? LoadTemporalEdgeListFile(f.path(), false).status()
                   : LoadEdgeListFile(f.path(), false).status();
    EXPECT_EQ(s.code(), c.expected_code) << c.name << ": " << s;
    EXPECT_NE(s.message().find(c.message_substring), std::string::npos)
        << c.name << ": message was '" << s.message() << "'";
  }
}

TEST(MalformedInputTest, FileContextIsChainedIntoTheMessage) {
  TempFile f("1 -2 0\n");
  const Status s = LoadTemporalEdgeListFile(f.path(), false).status();
  ASSERT_FALSE(s.ok());
  // "path: line N: ..." — the WithContext chain keeps both the file and the
  // per-line diagnostic.
  EXPECT_NE(s.message().find(f.path()), std::string::npos) << s;
  EXPECT_NE(s.message().find("line 1"), std::string::npos) << s;
}

TEST(MalformedInputTest, CrlfFilesLoadIdenticallyToLf) {
  TempFile lf("1 2\n2 3\n");
  TempFile crlf("1 2\r\n2 3\r\n");
  const auto a = LoadEdgeListFile(lf.path(), false);
  const auto b = LoadEdgeListFile(crlf.path(), false);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(a->graph.num_nodes(), b->graph.num_nodes());
  EXPECT_EQ(a->graph.num_edges(), b->graph.num_edges());
}

TEST(MalformedInputTest, EmptyStaticFileIsAnEmptyGraph) {
  // A static edge list with no rows is well-formed (unlike temporal files,
  // which need at least one snapshot).
  TempFile f("# header only\n");
  const auto loaded = LoadEdgeListFile(f.path(), false);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->graph.num_nodes(), 0);
  EXPECT_EQ(loaded->graph.num_edges(), 0);
}

TEST(MalformedInputTest, NodeLimitIsEnforced) {
  TempFile f("0 1\n2 3\n4 5\n");
  EdgeListLimits limits;
  limits.max_nodes = 4;
  const Status s = LoadEdgeListFile(f.path(), false, limits).status();
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s;
  EXPECT_NE(s.message().find("node limit"), std::string::npos) << s;
  limits.max_nodes = 6;
  EXPECT_TRUE(LoadEdgeListFile(f.path(), false, limits).ok());
}

TEST(MalformedInputTest, EdgeLimitIsEnforcedOnBothFormats) {
  EdgeListLimits limits;
  limits.max_edges = 2;
  {
    TempFile f("0 1\n1 2\n2 3\n");
    const Status s = LoadEdgeListFile(f.path(), false, limits).status();
    EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s;
    EXPECT_NE(s.message().find("line 3"), std::string::npos) << s;
  }
  {
    TempFile f("0 1 0\n1 2 0\n2 3 1\n");
    const Status s = LoadTemporalEdgeListFile(f.path(), false, limits).status();
    EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s;
  }
}

TEST(MalformedInputTest, TemporalNodeLimitIsEnforced) {
  TempFile f("0 1 0\n2 3 0\n");
  EdgeListLimits limits;
  limits.max_nodes = 3;
  const Status s = LoadTemporalEdgeListFile(f.path(), false, limits).status();
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s;
  EXPECT_NE(s.message().find("line 2"), std::string::npos) << s;
}

// Loader-OOM contract (docs/ROBUSTNESS.md): an allocation failure while
// buffering edges — injected here through the graph_io.alloc failpoint —
// must surface as a descriptive kResourceExhausted with the running byte
// estimate, never as an uncaught std::bad_alloc.
TEST(MalformedInputTest, InjectedAllocationFailureIsResourceExhausted) {
  TempFile f("0 1\n1 2\n2 3\n");
  FailpointScope scope(42);
  FailpointSpec spec;
  spec.action = FailpointAction::kBadAlloc;
  ASSERT_TRUE(ConfigureFailpoint("graph_io.alloc", spec).ok());
  const Status s = LoadEdgeListFile(f.path(), false).status();
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s;
  EXPECT_NE(s.message().find("out of memory"), std::string::npos) << s;
  EXPECT_NE(s.message().find("bytes"), std::string::npos) << s;
}

TEST(MalformedInputTest, InjectedTemporalAllocationFailureIsClean) {
  TempFile f("0 1 0\n1 2 0\n2 3 1\n");
  FailpointScope scope(42);
  FailpointSpec spec;
  spec.action = FailpointAction::kBadAlloc;
  ASSERT_TRUE(ConfigureFailpoint("graph_io.alloc", spec).ok());
  const Status s = LoadTemporalEdgeListFile(f.path(), false).status();
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s;
  EXPECT_NE(s.message().find("out of memory"), std::string::npos) << s;
}

TEST(MalformedInputTest, InjectedLoadFaultCarriesThePathContext) {
  TempFile f("0 1\n");
  FailpointScope scope(42);
  FailpointSpec spec;
  spec.action = FailpointAction::kError;
  spec.code = StatusCode::kUnavailable;
  ASSERT_TRUE(ConfigureFailpoint("graph_io.load", spec).ok());
  const Status s = LoadEdgeListFile(f.path(), false).status();
  EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s;
  EXPECT_NE(s.message().find(f.path()), std::string::npos) << s;
}

}  // namespace
}  // namespace crashsim
