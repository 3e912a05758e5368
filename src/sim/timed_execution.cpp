#include "sim/timed_execution.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

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
  // Per-process tokens must be totally ordered in time (no overlap). The
  // check walks the plans in key order, which is total once token ids are
  // unique, so its verdict does not depend on the order of exec.plans.
  struct Key {
    ProcessId process;
    TokenId token;
    double t_in;
    double t_out;
  };
  const auto key_of = [&exec](std::size_t i) {
    return Key{exec.plans[i].process, exec.plans[i].token, exec.t_in(i),
               exec.t_out(i)};
  };
  const auto key_less = [](const Key& a, const Key& b) {
    return std::tie(a.process, a.t_in, a.t_out, a.token) <
           std::tie(b.process, b.t_in, b.t_out, b.token);
  };
  const auto overlaps = [](const Key& prev, const Key& cur) {
    return prev.process == cur.process && cur.t_in < prev.t_out;
  };
  const auto overlap_error = [](const Key& prev, const Key& cur) {
    return "process " + std::to_string(cur.process) +
           " has overlapping tokens " + std::to_string(prev.token) + ", " +
           std::to_string(cur.token);
  };

  const std::size_t n = exec.plans.size();
  // Ids that increase in plan order are distinct, so the duplicate table
  // is built only at the first id that does not, seeded with those before.
  std::optional<IdSlots> seen;
  // While the plans are in key order the overlap check walks them in
  // place: first_overlap is the first plan overlapping its predecessor.
  bool in_key_order = true;
  std::size_t first_overlap = 0;
  const double* row = exec.times.data();
  for (std::size_t i = 0; i < n; ++i, row += want) {
    const TokenPlan& p = exec.plans[i];
    // `>=` also fails on a NaN; with the row non-decreasing, a finite
    // first and last time make every time finite. The row is tested
    // without a branch per time; the first failing pair names the error.
    bool ordered = true;
    for (std::size_t k = 1; k < want; ++k) ordered &= row[k] >= row[k - 1];
    if (!ordered) {
      std::size_t k = 1;
      while (row[k] >= row[k - 1]) ++k;
      return "token " + std::to_string(p.token) +
             (std::isnan(row[k]) || std::isnan(row[k - 1])
                  ? ": crossing time is not finite"
                  : ": times decrease");
    }
    if (!std::isfinite(row[0]) || !std::isfinite(row[want - 1])) {
      return "token " + std::to_string(p.token) +
             ": crossing time is not finite";
    }
    if (p.source >= exec.net->fan_in()) {
      return "token " + std::to_string(p.token) + ": bad source wire";
    }
    if (!seen && i != 0 && p.token <= exec.plans[i - 1].token) {
      seen.emplace(n);
      for (std::size_t j = 0; j < i; ++j) seen->insert(exec.plans[j].token);
    }
    if (seen && !seen->insert(p.token)) {
      return "duplicate token id " + std::to_string(p.token);
    }
    if (in_key_order && i != 0) {
      const Key prev = key_of(i - 1);
      const Key cur = key_of(i);
      if (key_less(cur, prev)) {
        in_key_order = false;
      } else if (first_overlap == 0 && overlaps(prev, cur)) {
        first_overlap = i;
      }
    }
  }
  if (in_key_order) {
    return first_overlap == 0
               ? std::string{}
               : overlap_error(key_of(first_overlap - 1),
                               key_of(first_overlap));
  }
  std::vector<Key> by_key(n);
  for (std::size_t i = 0; i < n; ++i) by_key[i] = key_of(i);
  std::sort(by_key.begin(), by_key.end(), key_less);
  for (std::size_t i = 1; i < n; ++i) {
    if (overlaps(by_key[i - 1], by_key[i])) {
      return overlap_error(by_key[i - 1], by_key[i]);
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
