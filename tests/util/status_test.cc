#include "util/status.h"

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace crashsim {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
  EXPECT_EQ(s, OkStatus());
}

TEST(StatusTest, FactoryFunctionsSetCodeAndMessage) {
  EXPECT_EQ(InvalidArgumentError("c out of range").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(DeadlineExceededError("x").code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(CancelledError("x").code(), StatusCode::kCancelled);
  EXPECT_EQ(ResourceExhaustedError("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(DataLossError("x").code(), StatusCode::kDataLoss);
  const Status s = InvalidArgumentError("c out of range");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "c out of range");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: c out of range");
}

TEST(StatusTest, WithContextChainsMessages) {
  const Status inner = InvalidArgumentError("line 3: negative node id -7");
  const Status outer = inner.WithContext("load graph.txt");
  EXPECT_EQ(outer.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(outer.message(), "load graph.txt: line 3: negative node id -7");
  // OK statuses pass through unchanged.
  EXPECT_TRUE(OkStatus().WithContext("anything").ok());
}

TEST(StatusTest, StreamInsertionUsesToString) {
  std::ostringstream os;
  os << NotFoundError("no such node");
  EXPECT_EQ(os.str(), "NOT_FOUND: no such node");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(v.status().ok());
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = NotFoundError("nope");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, SupportsMoveOnlyTypes) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(7);
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> taken = std::move(v).value();
  EXPECT_EQ(*taken, 7);
}

TEST(StatusOrTest, ArrowOperatorReachesMembers) {
  StatusOr<std::string> v = std::string("abc");
  EXPECT_EQ(v->size(), 3u);
}

Status FailsWhen(bool fail) {
  RETURN_IF_ERROR(fail ? InvalidArgumentError("inner failure") : OkStatus());
  return OkStatus();
}

TEST(StatusMacroTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(FailsWhen(false).ok());
  const Status s = FailsWhen(true);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "inner failure");
}

StatusOr<int> Doubled(StatusOr<int> in) {
  ASSIGN_OR_RETURN(const int v, std::move(in));
  return 2 * v;
}

TEST(StatusMacroTest, AssignOrReturnUnwrapsOrPropagates) {
  const StatusOr<int> ok = Doubled(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  const StatusOr<int> err = Doubled(DataLossError("truncated"));
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kDataLoss);
}

constexpr StatusCode kAllCodes[] = {
    StatusCode::kOk,          StatusCode::kInvalidArgument,
    StatusCode::kNotFound,    StatusCode::kDeadlineExceeded,
    StatusCode::kCancelled,   StatusCode::kResourceExhausted,
    StatusCode::kDataLoss,    StatusCode::kUnavailable};

TEST(StatusCodeNameTest, EveryCodeRoundTripsThroughItsName) {
  for (const StatusCode code : kAllCodes) {
    const std::optional<StatusCode> parsed =
        StatusCodeFromName(StatusCodeName(code));
    ASSERT_TRUE(parsed.has_value()) << StatusCodeName(code);
    EXPECT_EQ(*parsed, code);
  }
  EXPECT_FALSE(StatusCodeFromName("UNKNOWN").has_value());
  EXPECT_FALSE(StatusCodeFromName("invalid_argument").has_value());
  EXPECT_FALSE(StatusCodeFromName("").has_value());
}

// The exit-code table in docs/ERRORS.md ("| 2 | `INVALID_ARGUMENT` |" rows)
// is what scripts rely on; ExitCodeFor must agree with every row, and every
// non-OK code must have one.
TEST(ExitCodeForTest, MatchesTheDocumentedTable) {
  std::ifstream doc(CRASHSIM_SOURCE_DIR "/docs/ERRORS.md");
  ASSERT_TRUE(doc) << "cannot open docs/ERRORS.md";
  std::map<StatusCode, int> documented;
  std::string line;
  while (std::getline(doc, line)) {
    int exit_code = 0;
    char name[32] = {};
    if (std::sscanf(line.c_str(), "| %d | `%31[A-Z_]` |", &exit_code, name) !=
        2) {
      continue;
    }
    const std::optional<StatusCode> code = StatusCodeFromName(name);
    ASSERT_TRUE(code.has_value()) << line;
    documented[*code] = exit_code;
  }
  EXPECT_EQ(ExitCodeFor(StatusCode::kOk), 0);
  std::set<int> exit_codes = {0, 1};  // success, usage error
  for (const StatusCode code : kAllCodes) {
    if (code == StatusCode::kOk) continue;
    ASSERT_TRUE(documented.count(code)) << StatusCodeName(code);
    EXPECT_EQ(ExitCodeFor(code), documented[code]) << StatusCodeName(code);
    EXPECT_TRUE(exit_codes.insert(ExitCodeFor(code)).second)
        << "exit code " << ExitCodeFor(code) << " reused";
  }
}

}  // namespace
}  // namespace crashsim
