// Minimal command-line flag parsing for the example binaries.
//
// Supports "--name=value" and "--name value" forms plus boolean switches.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace cn {

/// Parses flags of the form --key=value / --key value / --switch.
///
/// Anything not starting with "--" is ignored. Unknown flags are retained;
/// callers query by name with a default. The typed accessors throw
/// std::invalid_argument, naming the flag and its value, unless the whole
/// value parses: so "--trials abc" or "--c_max 2,5" never runs with a
/// silently truncated number.
class CliArgs {
 public:
  CliArgs(int argc, char** argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  /// Accepts true/false, 1/0 and yes/no; a bare --switch reads true.
  bool get_bool(const std::string& name, bool fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Parses `value`, given to flag --`name`, as a floating-point number
/// ("nan" and "inf" included); throws std::invalid_argument naming both
/// unless the whole value parses.
double parse_double(const std::string& name, const std::string& value);

}  // namespace cn
