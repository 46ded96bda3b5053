// One flag table per command-line tool (DESIGN.md §6).  A tool lists its
// flags as rows; the parser owns what every row shares: a value flag needs
// a non-empty value, every refusal is one "--flag: reason" line, an unknown
// flag is refused, and the usage text is printed from the rows.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"

namespace mlpm::flags {

// One flag.  An empty metavar makes it a switch: `apply` gets "" and the
// next token stays an argument.  `apply` writes the value into the tool's
// options and throws CheckError with the reason (without the flag name)
// for a value it refuses.
using Apply = std::function<void(const std::string& value)>;
struct Flag {
  std::string name;     // "--cooldown"
  std::string metavar;  // "S"; empty for a switch
  std::string help;     // one line
  Apply apply;
};

// Applies `args` (argv without the program name) to `table`, left to right.
// Returns "" when every token applied, else the one refusal: "--flag:
// reason" or "unknown flag 'TOKEN'".  Tokens that do not start with '-' go
// to `operand` when one is given and are unknown flags otherwise.
[[nodiscard]] std::string Parse(
    const std::vector<Flag>& table, const std::vector<std::string>& args,
    const Apply& operand = {});

// "usage: PROGRAM [FLAG]... OPERANDS", then one aligned line per row.
[[nodiscard]] std::string Usage(const std::string& program,
                                const std::vector<Flag>& table,
                                const std::string& operands = "");

// Strict parse of a numeric flag value: refuses leading blanks, trailing
// garbage ("4x"), nan/inf, a sign on an unsigned type, and anything
// `in_range` refuses; `range` describes the accepted values.  The value is
// parsed at the widest type of its kind; `in_range` must keep it within T.
template <typename T, typename InRange>
[[nodiscard]] T ParseNumber(const std::string& s, InRange in_range,
                            const char* range) {
  using Wide = std::conditional_t<
      std::is_floating_point_v<T>, double,
      std::conditional_t<std::is_signed_v<T>, long long, unsigned long long>>;
  const char* begin = s.c_str();
  char* end = nullptr;
  errno = 0;
  Wide v{};
  if constexpr (std::is_same_v<Wide, double>)
    v = std::strtod(begin, &end);
  else if constexpr (std::is_same_v<Wide, long long>)
    v = std::strtoll(begin, &end, 10);
  else
    v = std::strtoull(begin, &end, 10);
  if (std::isspace(static_cast<unsigned char>(s[0])) ||
      (std::is_unsigned_v<Wide> && s[0] == '-') || end == begin ||
      *end != '\0' || errno == ERANGE ||
      !std::isfinite(static_cast<double>(v))) {
    throw CheckError("'" + s + "' is not " +
                     (std::is_same_v<Wide, double>      ? "a finite number"
                      : std::is_same_v<Wide, long long> ? "an integer"
                                              : "a non-negative integer"));
  }
  if (!in_range(v))
    throw CheckError("'" + s + "' is out of range (need " + range + ")");
  return static_cast<T>(v);
}

// Row helpers: a switch setting `field`; a value kept verbatim; a value
// kept through ParseNumber.
inline Apply Set(bool& field) {
  return [&field](const std::string&) { field = true; };
}
inline Apply Text(std::string& field) {
  return [&field](const std::string& v) { field = v; };
}
template <typename T, typename InRange>
Apply Number(T& field, InRange in_range, const char* range) {
  return [&field, in_range, range](const std::string& v) {
    field = ParseNumber<T>(v, in_range, range);
  };
}

// The value `s` names among `choices`; throws CheckError listing the names
// otherwise.
template <typename T>
[[nodiscard]] T Choose(const std::string& s,
                       std::initializer_list<std::pair<const char*, T>> choices) {
  std::string names;
  for (const auto& [name, value] : choices) {
    if (s == name) return value;
    names += std::string(names.empty() ? "" : ", ") + name;
  }
  throw CheckError("'" + s + "' is not one of " + names);
}

}  // namespace mlpm::flags
