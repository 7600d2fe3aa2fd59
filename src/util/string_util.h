#ifndef CRASHSIM_UTIL_STRING_UTIL_H_
#define CRASHSIM_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace crashsim {

// Splits on a single delimiter character; adjacent delimiters yield empty
// fields (CSV semantics).
std::vector<std::string> Split(std::string_view s, char delim);

// ASCII whitespace as std::isspace classifies it in the "C" locale:
// ' ', '\t', '\n', '\v', '\f', '\r'.
constexpr bool IsAsciiSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

// True if s begins with prefix.
bool StartsWith(std::string_view s, std::string_view prefix);

// Parses signed/unsigned/floating values; returns false on any trailing
// garbage or range error (strict, unlike atoi). Surrounding whitespace is
// ignored. ParseInt64 accepts exactly what base-10 strtoll accepts and
// allocates nothing; the flag parser and the edge-list loaders share it.
bool ParseInt64(std::string_view s, int64_t* out);
bool ParseDouble(std::string_view s, double* out);

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Appends `s` to `out` as a quoted JSON string literal: '"' and '\\' are
// backslash-escaped, \b \f \n \r \t use their short escapes, other bytes
// below 0x20 become \u00XX, and every other byte (UTF-8 included) is copied
// as is. Every JSON emitter in the library writes its strings with it.
void AppendJsonString(std::string_view s, std::string* out);

// Human-readable count, e.g. 12345678 -> "12,345,678".
std::string WithThousands(int64_t v);

}  // namespace crashsim

#endif  // CRASHSIM_UTIL_STRING_UTIL_H_
