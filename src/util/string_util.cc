#include "util/string_util.h"

#include <cerrno>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace crashsim {

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && IsAsciiSpace(s[b])) ++b;
  while (e > b && IsAsciiSpace(s[e - 1])) --e;
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ParseInt64(std::string_view s, int64_t* out) {
  s = Trim(s);
  // Same language as base-10 strtoll: one optional sign, then digits.
  // from_chars takes '-' but not '+', so a '+' is stripped here and must be
  // followed by a digit ("+-7" and "++7" are rejected, as strtoll does).
  if (!s.empty() && s.front() == '+') {
    s.remove_prefix(1);
    if (s.empty() || s.front() < '0' || s.front() > '9') return false;
  }
  int64_t v = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v, 10);
  if (ec != std::errc() || ptr != end) return false;
  *out = v;
  return true;
}

bool ParseDouble(std::string_view s, double* out) {
  const std::string str(Trim(s));
  if (str.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(str.c_str(), &end);
  if (errno != 0 || end != str.c_str() + str.size()) return false;
  *out = v;
  return true;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

void AppendJsonString(std::string_view s, std::string* out) {
  out->push_back('"');
  for (const char ch : s) {
    switch (ch) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\b': out->append("\\b"); break;
      case '\f': out->append("\\f"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out->append(buf);
        } else {
          out->push_back(ch);
        }
    }
  }
  out->push_back('"');
}

std::string WithThousands(int64_t v) {
  const bool neg = v < 0;
  std::string digits = std::to_string(neg ? -v : v);
  std::string out;
  const size_t n = digits.size();
  for (size_t i = 0; i < n; ++i) {
    if (i > 0 && (n - i) % 3 == 0) out.push_back(',');
    out.push_back(digits[i]);
  }
  return neg ? "-" + out : out;
}

}  // namespace crashsim
