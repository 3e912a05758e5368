// Minimal command-line flag parsing for the example binaries.
//
// Supports "--name=value" and "--name value" forms plus boolean switches.
#pragma once

#include <concepts>
#include <cstdint>
#include <limits>
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
  /// A count or other whole-number setting of type T. It also throws,
  /// naming the flag and the range, when the value is negative or above
  /// `max` (by default T's largest), so "--trials -1" never wraps to
  /// 2^64 - 1 trials.
  template <std::unsigned_integral T>
  T get_uint(const std::string& name, T fallback,
             T max = std::numeric_limits<T>::max()) const;
  double get_double(const std::string& name, double fallback) const;
  /// Accepts true/false, 1/0 and yes/no; a bare --switch reads true.
  bool get_bool(const std::string& name, bool fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

/// The get_uint bound of a flag that starts one OS thread per unit
/// (--threads, --run_threads, --clients, a service's shard count).
inline constexpr std::uint32_t kMaxThreadsFlag = 1024;

/// Parses `value`, given to flag --`name`, as a floating-point number
/// ("nan" and "inf" included); throws std::invalid_argument naming both
/// unless the whole value parses.
double parse_double(const std::string& name, const std::string& value);

/// Parses `value`, given to flag --`name`, as an integer in [0, max];
/// throws std::invalid_argument naming both, and the range, otherwise.
std::uint64_t parse_uint(const std::string& name, const std::string& value,
                         std::uint64_t max);

template <std::unsigned_integral T>
T CliArgs::get_uint(const std::string& name, T fallback, T max) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return static_cast<T>(parse_uint(name, it->second, max));
}

}  // namespace cn
