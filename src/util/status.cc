#include "util/status.h"

#include <ostream>

namespace crashsim {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case StatusCode::kCancelled: return "CANCELLED";
    case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case StatusCode::kDataLoss: return "DATA_LOSS";
    case StatusCode::kUnavailable: return "UNAVAILABLE";
  }
  return "UNKNOWN";
}

std::optional<StatusCode> StatusCodeFromName(std::string_view name) {
  for (const StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kDeadlineExceeded, StatusCode::kCancelled,
        StatusCode::kResourceExhausted, StatusCode::kDataLoss,
        StatusCode::kUnavailable}) {
    if (name == StatusCodeName(code)) return code;
  }
  return std::nullopt;
}

int ExitCodeFor(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return 0;
    case StatusCode::kInvalidArgument: return 2;
    case StatusCode::kNotFound: return 3;
    case StatusCode::kDeadlineExceeded: return 4;
    case StatusCode::kCancelled: return 5;
    case StatusCode::kResourceExhausted: return 6;
    case StatusCode::kDataLoss: return 7;
    case StatusCode::kUnavailable: return 8;
  }
  return 1;
}

Status Status::WithContext(std::string_view context) const {
  if (ok()) return *this;
  std::string chained(context);
  chained += ": ";
  chained += message_;
  return Status(code_, std::move(chained));
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const Status& status) {
  return os << status.ToString();
}

Status OkStatus() { return Status(); }

Status InvalidArgumentError(std::string message) {
  return Status(StatusCode::kInvalidArgument, std::move(message));
}
Status NotFoundError(std::string message) {
  return Status(StatusCode::kNotFound, std::move(message));
}
Status DeadlineExceededError(std::string message) {
  return Status(StatusCode::kDeadlineExceeded, std::move(message));
}
Status CancelledError(std::string message) {
  return Status(StatusCode::kCancelled, std::move(message));
}
Status ResourceExhaustedError(std::string message) {
  return Status(StatusCode::kResourceExhausted, std::move(message));
}
Status DataLossError(std::string message) {
  return Status(StatusCode::kDataLoss, std::move(message));
}
Status UnavailableError(std::string message) {
  return Status(StatusCode::kUnavailable, std::move(message));
}

}  // namespace crashsim
