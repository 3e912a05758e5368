#include "util/cli.hpp"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

namespace cn {

namespace {

[[noreturn]] void bad_value(const std::string& name, const std::string& value,
                            const char* expected) {
  throw std::invalid_argument("--" + name + ": '" + value + "' is not " +
                              expected);
}

}  // namespace

CliArgs::CliArgs(int argc, char** argv) {
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
}

bool CliArgs::has(const std::string& name) const {
  return values_.contains(name);
}

std::string CliArgs::get(const std::string& name, const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t CliArgs::get_int(const std::string& name, std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& value = it->second;
  char* end = nullptr;
  errno = 0;
  const std::int64_t v = std::strtoll(value.c_str(), &end, 10);
  if (value.empty() || end != value.c_str() + value.size() || errno == ERANGE) {
    bad_value(name, value, "a 64-bit integer");
  }
  return v;
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : parse_double(name, it->second);
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
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

}  // namespace cn
