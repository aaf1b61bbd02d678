#include "util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace e2e {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::uint64_t HashBytes(const char* data, std::size_t size) {
  std::uint64_t h = 0xCBF29CE484222325ull ^ size;
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, data + i, 8);
    h = (h ^ word) * 0x100000001B3ull;
    h ^= h >> 29;
  }
  for (; i < size; ++i) {
    h = (h ^ static_cast<unsigned char>(data[i])) * 0x100000001B3ull;
  }
  return h ^ (h >> 32);
}

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i + 1 < argc; i += 2) {
    std::string name = argv[i];
    if (name.rfind("--", 0) == 0) name = name.substr(2);
    values_[name] = argv[i + 1];
  }
}

bool Args::Has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string Args::Get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? std::string() : it->second;
}

std::uint64_t Args::GetU64(const std::string& name) const {
  return std::strtoull(Get(name).c_str(), nullptr, 10);
}

void JsonLine::Add(const std::string& key, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g",
                std::isfinite(value) ? value : 0.0);
  if (!body_.empty()) body_ += ", ";
  body_ += "\"" + key + "\": " + buffer;
}

void JsonLine::AddInt(const std::string& key, std::uint64_t value) {
  if (!body_.empty()) body_ += ", ";
  body_ += "\"" + key + "\": " + std::to_string(value);
}

std::string JsonLine::str() const { return "{" + body_ + "}"; }

bool WriteFile(const std::string& path, const std::string& data,
               std::string* error) {
  std::ofstream out(path, std::ios::binary);
  out << data;
  out.flush();
  if (!out) {
    *error = "cannot write " + path;
    return false;
  }
  return true;
}

bool ReadFile(const std::string& path, std::string* data, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *data = buffer.str();
  return true;
}

}  // namespace e2e
