#include "common/flags.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace bb {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "";  // bare switch
    }
  }
}

std::string Flags::get_string(const std::string& name,
                              const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

namespace {

[[noreturn]] void bad_number(const std::string& name, const std::string& value,
                             const char* what) {
  throw std::invalid_argument("--" + name + "=" + value + ": expected " + what);
}

}  // namespace

u64 Flags::get_u64(const std::string& name, u64 fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end() || it->second.empty()) return fallback;
  const std::string& s = it->second;
  // strtoull would accept a sign (wrapping "-1" to 2^64-1) and leading
  // blanks; only plain decimal digits are a u64.
  if (s.find_first_not_of("0123456789") != std::string::npos) {
    bad_number(name, s, "an unsigned integer");
  }
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), nullptr, 10);
  if (errno == ERANGE) bad_number(name, s, "an integer that fits 64 bits");
  return static_cast<u64>(v);
}

std::vector<std::string> Flags::names() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [name, value] : values_) out.push_back(name);
  return out;
}

double Flags::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end() || it->second.empty()) return fallback;
  const std::string& s = it->second;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  // strtod skips leading blanks; the whole token must be the number.
  if (std::isspace(static_cast<unsigned char>(s[0])) ||
      end != s.c_str() + s.size()) {
    bad_number(name, s, "a number");
  }
  if (errno == ERANGE || !std::isfinite(v)) {
    bad_number(name, s, "a finite number in range");
  }
  return v;
}

}  // namespace bb
