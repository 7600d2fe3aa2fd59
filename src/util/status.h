#ifndef CRASHSIM_UTIL_STATUS_H_
#define CRASHSIM_UTIL_STATUS_H_

#include <exception>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "util/logging.h"

namespace crashsim {

// Canonical error space of the library (a pragmatic subset of the gRPC /
// absl taxonomy — see docs/ERRORS.md for when each code is appropriate).
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,   // caller-supplied value out of domain
  kNotFound = 2,          // missing file / node id / named entity
  kDeadlineExceeded = 3,  // query deadline passed; partial answer available
  kCancelled = 4,         // cooperative cancellation observed
  kResourceExhausted = 5, // configured node/edge/memory limit hit
  kDataLoss = 6,          // unrecoverable corruption (truncated stream, ...)
  kUnavailable = 7,       // transient fault; safe to retry with backoff
};

// Stable upper-case identifier ("INVALID_ARGUMENT", ...).
const char* StatusCodeName(StatusCode code);

// Inverse of StatusCodeName; nullopt for a name no code carries.
std::optional<StatusCode> StatusCodeFromName(std::string_view name);

// Process exit code for `code`, shared by crashsim_cli and crashsim_serve
// (docs/ERRORS.md): 0 for OK, then one distinct code per StatusCode from 2
// up; 1 stays reserved for usage and flag-parse errors.
int ExitCodeFor(StatusCode code);

// Value-type error carrier: a code plus a human-readable message. The
// default-constructed Status is OK; everything in src/ that can fail for a
// data- or caller-dependent reason returns one of these (CHECK stays
// reserved for programmer errors / broken invariants). The class itself is
// [[nodiscard]]: silently dropping a returned Status discards the only
// record that a query failed, so every call site must consume or explicitly
// void-cast it (see docs/STATIC_ANALYSIS.md).
class [[nodiscard]] Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // Message chaining: returns this status with "context: " prepended, so
  // callers can annotate as an error bubbles up ("load graph.txt: line 3:
  // negative node id -7"). OK statuses pass through unchanged.
  [[nodiscard]] Status WithContext(std::string_view context) const;

  // "OK" or "<CODE_NAME>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) = default;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

// Factory helpers, one per non-OK code.
[[nodiscard]] Status OkStatus();
[[nodiscard]] Status InvalidArgumentError(std::string message);
[[nodiscard]] Status NotFoundError(std::string message);
[[nodiscard]] Status DeadlineExceededError(std::string message);
[[nodiscard]] Status CancelledError(std::string message);
[[nodiscard]] Status ResourceExhaustedError(std::string message);
[[nodiscard]] Status DataLossError(std::string message);
[[nodiscard]] Status UnavailableError(std::string message);

// Exception carrier for hoisting a Status across frames that can only
// propagate failures as exceptions (ParallelFor shard bodies, which have no
// Status return channel). Throw at the fault site, catch at the parallel
// call boundary, convert back to a Status there. Never let one escape to a
// caller that speaks Status.
class StatusException : public std::exception {
 public:
  explicit StatusException(Status status)
      : status_(std::move(status)), what_(status_.ToString()) {}

  const Status& status() const { return status_; }
  const char* what() const noexcept override { return what_.c_str(); }

 private:
  Status status_;
  std::string what_;
};

// Union of a Status and a T: exactly one of the two is active. A non-OK
// StatusOr never holds a value; value() CHECK-fails unless ok(). Implicit
// construction from both sides keeps call sites terse:
//
//   StatusOr<LoadedGraph> Load(...) {
//     if (bad) return InvalidArgumentError("...");
//     return loaded;  // moves
//   }
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  // Implicit: lets `return SomeError(...)` convert.
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    CRASHSIM_CHECK(!status_.ok())
        << "StatusOr constructed from OK status without a value";
  }
  // Implicit: lets `return value` convert.
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    CRASHSIM_CHECK(ok()) << status_.ToString();
    return *value_;
  }
  T& value() & {
    CRASHSIM_CHECK(ok()) << status_.ToString();
    return *value_;
  }
  T&& value() && {
    CRASHSIM_CHECK(ok()) << status_.ToString();
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;           // OK iff value_ holds
  std::optional<T> value_;
};

}  // namespace crashsim

// Early-returns the enclosing function with the statement's Status when it
// is not OK. The enclosing function must return Status (or StatusOr<T>,
// which implicitly converts).
#define RETURN_IF_ERROR(expr)                       \
  do {                                              \
    ::crashsim::Status _crashsim_st = (expr);       \
    if (!_crashsim_st.ok()) return _crashsim_st;    \
  } while (0)

#define CRASHSIM_STATUS_CONCAT_INNER_(a, b) a##b
#define CRASHSIM_STATUS_CONCAT_(a, b) CRASHSIM_STATUS_CONCAT_INNER_(a, b)

// Evaluates a StatusOr expression; on error returns its Status, otherwise
// moves the value into `lhs` (which may declare a new variable):
//   ASSIGN_OR_RETURN(const LoadedGraph loaded, LoadEdgeListFile(path, false));
#define ASSIGN_OR_RETURN(lhs, rexpr)                                    \
  auto CRASHSIM_STATUS_CONCAT_(_crashsim_sor_, __LINE__) = (rexpr);     \
  if (!CRASHSIM_STATUS_CONCAT_(_crashsim_sor_, __LINE__).ok())          \
    return CRASHSIM_STATUS_CONCAT_(_crashsim_sor_, __LINE__).status();  \
  lhs = std::move(CRASHSIM_STATUS_CONCAT_(_crashsim_sor_, __LINE__)).value()

#endif  // CRASHSIM_UTIL_STATUS_H_
