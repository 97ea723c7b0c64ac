// Minimal command-line flag parsing for the examples and bench harnesses.
//
//   bb::Flags flags(argc, argv);
//   const u64 n = flags.get_u64("instructions", 50'000'000);
//   const std::string w = flags.get_string("workload", "mcf");
//   if (flags.has("help")) { ... }
//
// Accepts --name=value, --name value, and bare --name switches. Positional
// arguments are collected in order.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/types.h"

namespace bb {

class Flags {
 public:
  Flags(int argc, char** argv);

  bool has(const std::string& name) const {
    return values_.count(name) != 0;
  }

  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  /// Numeric getters return `fallback` when the flag is absent or a bare
  /// switch. Otherwise the whole value must parse: get_u64 takes plain
  /// decimal digits that fit 64 bits (no sign), get_double a finite number.
  /// Anything else throws std::invalid_argument naming the flag, which
  /// cli_main turns into exit 2.
  u64 get_u64(const std::string& name, u64 fallback) const;
  double get_double(const std::string& name, double fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Every --name given, sorted, so cli_main can reject names a tool does
  /// not read.
  std::vector<std::string> names() const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace bb
