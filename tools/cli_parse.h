// Strict numeric flag parsing shared by the command-line tools.
//
// strtoul alone would quietly read "74z1" as 74 and clamp overflow to
// ULLONG_MAX — an operator typo that binds the wrong port or disables a
// configured TTL deserves an error, not a surprise. One definition here
// instead of per-tool variants that drift apart.

#ifndef TICL_TOOLS_CLI_PARSE_H_
#define TICL_TOOLS_CLI_PARSE_H_

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <string>

namespace ticl::tools {

/// Strict decimal parse: the whole token must be digits (no sign, no
/// whitespace, no trailing junk), must not overflow, and must fit under
/// `max`.
inline bool ParseUnsigned(const std::string& value, unsigned long long max,
                          unsigned long long* out) {
  if (value.empty() || value[0] < '0' || value[0] > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  if (errno != 0 || end != value.c_str() + value.size()) return false;
  if (parsed > max) return false;
  *out = parsed;
  return true;
}

/// ParseUnsigned of `value`, the argument of `flag`, into an unsigned
/// field of type T (its range is the bound); `positive` also rejects 0.
/// On failure *error names the flag.
template <typename T>
bool ParseUnsignedFlag(const std::string& flag, const std::string& value,
                       T* out, std::string* error, bool positive = false) {
  unsigned long long number = 0;
  if (!ParseUnsigned(value, std::numeric_limits<T>::max(), &number) ||
      (positive && number == 0)) {
    *error = positive ? flag + " must be a positive integer"
                      : "invalid " + flag + ": " + value;
    return false;
  }
  *out = static_cast<T>(number);
  return true;
}

/// Strict floating-point parse: the whole token must be consumed.
/// Range/sanity checks (e.g. epsilon in [0, 1)) stay with the caller —
/// they are flag semantics, not syntax.
inline bool ParseDouble(const std::string& value, double* out) {
  if (value.empty()) return false;
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (end != value.c_str() + value.size()) return false;
  *out = parsed;
  return true;
}

}  // namespace ticl::tools

#endif  // TICL_TOOLS_CLI_PARSE_H_
