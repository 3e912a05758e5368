#include "sim/timed_execution.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>

#include "util/id_slots.hpp"

namespace cn {

std::string validate(const TimedExecution& exec) {
  if (exec.net == nullptr) return "no network";
  const std::size_t want = exec.stride();
  if (exec.times.size() != exec.plans.size() * want) {
    return "times array has " + std::to_string(exec.times.size()) +
           " entries, expected " + std::to_string(exec.plans.size()) +
           " plans x " + std::to_string(want) + " crossing times";
  }
  IdSlots seen(exec.plans.size());
  const double* row = exec.times.data();
  for (const TokenPlan& p : exec.plans) {
    // `!(>=)` also fails on a NaN; with the row non-decreasing, a finite
    // first and last time make every time finite.
    for (std::size_t k = 1; k < want; ++k) {
      if (!(row[k] >= row[k - 1])) {
        return "token " + std::to_string(p.token) +
               (std::isnan(row[k]) || std::isnan(row[k - 1])
                    ? ": crossing time is not finite"
                    : ": times decrease");
      }
    }
    if (!std::isfinite(row[0]) || !std::isfinite(row[want - 1])) {
      return "token " + std::to_string(p.token) +
             ": crossing time is not finite";
    }
    if (p.source >= exec.net->fan_in()) {
      return "token " + std::to_string(p.token) + ": bad source wire";
    }
    if (!seen.insert(p.token)) {
      return "duplicate token id " + std::to_string(p.token);
    }
    row += want;
  }
  // Per-process tokens must be totally ordered in time (no overlap). The
  // key is total (token ids are unique by now), so the verdict does not
  // depend on the order of exec.plans, and an already-sorted plan list
  // (generate_workload's output) skips the sort exactly.
  struct Key {
    ProcessId process;
    TokenId token;
    double t_in;
    double t_out;
  };
  std::vector<Key> by_proc(exec.plans.size());
  for (std::size_t i = 0; i < exec.plans.size(); ++i) {
    by_proc[i] = {exec.plans[i].process, exec.plans[i].token, exec.t_in(i),
                  exec.t_out(i)};
  }
  const auto key_less = [](const Key& a, const Key& b) {
    return std::tie(a.process, a.t_in, a.t_out, a.token) <
           std::tie(b.process, b.t_in, b.t_out, b.token);
  };
  if (!std::is_sorted(by_proc.begin(), by_proc.end(), key_less)) {
    std::sort(by_proc.begin(), by_proc.end(), key_less);
  }
  for (std::size_t i = 1; i < by_proc.size(); ++i) {
    const Key& prev = by_proc[i - 1];
    const Key& cur = by_proc[i];
    if (prev.process == cur.process && cur.t_in < prev.t_out) {
      return "process " + std::to_string(cur.process) +
             " has overlapping tokens " + std::to_string(prev.token) + ", " +
             std::to_string(cur.token);
    }
  }
  return {};
}

std::span<double> add_uniform_plan(TimedExecution& exec, TokenId token,
                                   ProcessId process, std::uint32_t source,
                                   double t_in, double delay, double rank) {
  const std::span<double> row = exec.add(
      {.token = token, .process = process, .source = source, .rank = rank});
  for (std::size_t k = 0; k < row.size(); ++k) row[k] = t_in + k * delay;
  return row;
}

}  // namespace cn
