// Small helpers shared by the benchmark's subcommands.

#ifndef E2E_BENCH_UTIL_H_
#define E2E_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

/// Word-wise 64-bit hash of a byte range (recorded per reply so the
/// checker can compare every reply with the first one of its query).
std::uint64_t HashBytes(const char* data, std::size_t size);

/// `--name value` flags after the subcommand.
class Args {
 public:
  Args(int argc, char** argv, int first);
  bool Has(const std::string& name) const;
  std::string Get(const std::string& name) const;  // "" when absent
  std::uint64_t GetU64(const std::string& name) const;

 private:
  std::map<std::string, std::string> values_;
};

/// One flat JSON object of named numbers, printed as a single line.
class JsonLine {
 public:
  void Add(const std::string& key, double value);
  void AddInt(const std::string& key, std::uint64_t value);
  std::string str() const;

 private:
  std::string body_;
};

bool WriteFile(const std::string& path, const std::string& data,
               std::string* error);
bool ReadFile(const std::string& path, std::string* data, std::string* error);

}  // namespace e2e

#endif  // E2E_BENCH_UTIL_H_
