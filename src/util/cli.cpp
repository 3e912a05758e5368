#include "util/cli.hpp"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

namespace cn {

namespace {

[[noreturn]] void bad_value(const std::string& name, const std::string& value,
                            const std::string& expected) {
  throw std::invalid_argument("--" + name + ": '" + value + "' is not " +
                              expected);
}

}  // namespace

CliArgs::CliArgs(int argc, char** argv,
                 std::initializer_list<std::string_view> flags)
    : flags_(flags.begin(), flags.end()) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (!arg.starts_with("--")) continue;
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      values_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    } else if (i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) != "--") {
      values_[std::string(arg)] = argv[i + 1];
      ++i;
    } else {
      values_[std::string(arg)] = "true";
    }
  }
  for (const auto& [name, value] : values_) {
    if (flags_.contains(name)) continue;
    std::string known;
    for (const std::string& flag : flags_) {
      known += (known.empty() ? "" : ", ") + ("--" + flag);
    }
    throw std::invalid_argument("--" + name + ": not a flag of this program" +
                                (known.empty() ? ", which takes none"
                                               : "; it reads " + known));
  }
}

const std::string* CliArgs::find(const std::string& name) const {
  if (!flags_.contains(name)) {
    throw std::logic_error("--" + name + " is read but not declared");
  }
  const auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

bool CliArgs::has(const std::string& name) const {
  return find(name) != nullptr;
}

std::string CliArgs::get(const std::string& name, const std::string& fallback) const {
  const std::string* value = find(name);
  return value == nullptr ? fallback : *value;
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const std::string* value = find(name);
  return value == nullptr ? fallback : parse_double(name, *value);
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const std::string* value = find(name);
  if (value == nullptr) return fallback;
  const std::string& v = *value;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  bad_value(name, v, "one of true/false/1/0/yes/no");
}

double parse_double(const std::string& name, const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (value.empty() || end != value.c_str() + value.size()) {
    bad_value(name, value, "a number");
  }
  return v;
}

std::uint64_t parse_uint(const std::string& name, const std::string& value,
                         std::uint64_t max) {
  // strtoull skips leading space and negates a leading '-', so "-1"
  // would read as 2^64 - 1: the value must start with a digit.
  const bool digit = !value.empty() && value[0] >= '0' && value[0] <= '9';
  char* end = nullptr;
  errno = 0;
  const std::uint64_t v = digit ? std::strtoull(value.c_str(), &end, 10) : 0;
  if (!digit || end != value.c_str() + value.size() || errno == ERANGE ||
      v > max) {
    bad_value(name, value, "an integer in [0, " + std::to_string(max) + "]");
  }
  return v;
}

}  // namespace cn
