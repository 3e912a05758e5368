// Minimal command-line flag parsing for the example binaries.
//
// Supports "--name=value" and "--name value" forms plus boolean switches.
#pragma once

#include <concepts>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <string_view>

namespace cn {

/// Parses flags of the form --key=value / --key value / --switch.
///
/// Anything not starting with "--" is ignored. A binary names every flag
/// it reads when it constructs its CliArgs, and any other flag throws
/// std::invalid_argument naming it, so "--trails 3" never runs the default
/// trial count. Callers query by name with a default; reading a flag the
/// binary did not name throws std::logic_error. The typed accessors throw
/// std::invalid_argument, naming the flag and its value, unless the whole
/// value parses: so "--trials abc" or "--c_max 2,5" never runs with a
/// silently truncated number.
class CliArgs {
 public:
  CliArgs(int argc, char** argv,
          std::initializer_list<std::string_view> flags);

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
  /// The value given to --`name`, or null; throws std::logic_error when
  /// `name` is not one of the binary's flags.
  const std::string* find(const std::string& name) const;

  std::set<std::string, std::less<>> flags_;
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
  const std::string* value = find(name);
  return value == nullptr ? fallback
                          : static_cast<T>(parse_uint(name, *value, max));
}

}  // namespace cn
