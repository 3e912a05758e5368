#include "sim/timed_execution.hpp"

#include <algorithm>
#include <string>
#include <tuple>

#include "util/id_slots.hpp"

namespace cn {

std::string validate(const TimedExecution& exec) {
  if (exec.net == nullptr) return "no network";
  const std::size_t want = exec.net->depth() + 1;
  IdSlots seen(exec.plans.size());
  for (const TokenPlan& p : exec.plans) {
    if (p.times.size() != want) {
      return "token " + std::to_string(p.token) + ": plan has " +
             std::to_string(p.times.size()) + " times, expected " +
             std::to_string(want);
    }
    for (std::size_t k = 1; k < p.times.size(); ++k) {
      if (p.times[k] < p.times[k - 1]) {
        return "token " + std::to_string(p.token) + ": times decrease";
      }
    }
    if (p.source >= exec.net->fan_in()) {
      return "token " + std::to_string(p.token) + ": bad source wire";
    }
    if (!seen.insert(p.token)) {
      return "duplicate token id " + std::to_string(p.token);
    }
  }
  // Per-process tokens must be totally ordered in time (no overlap). The
  // key is total (token ids are unique by now), so the verdict does not
  // depend on the order of exec.plans, and an already-sorted plan list
  // (generate_workload's output) skips the sort exactly.
  std::vector<const TokenPlan*> by_proc(exec.plans.size());
  for (std::size_t i = 0; i < exec.plans.size(); ++i) by_proc[i] = &exec.plans[i];
  const auto key_less = [](const TokenPlan* a, const TokenPlan* b) {
    return std::make_tuple(a->process, a->t_in(), a->t_out(), a->token) <
           std::make_tuple(b->process, b->t_in(), b->t_out(), b->token);
  };
  if (!std::is_sorted(by_proc.begin(), by_proc.end(), key_less)) {
    std::sort(by_proc.begin(), by_proc.end(), key_less);
  }
  for (std::size_t i = 1; i < by_proc.size(); ++i) {
    const TokenPlan* prev = by_proc[i - 1];
    const TokenPlan* cur = by_proc[i];
    if (prev->process == cur->process && cur->t_in() < prev->t_out()) {
      return "process " + std::to_string(cur->process) +
             " has overlapping tokens " + std::to_string(prev->token) + ", " +
             std::to_string(cur->token);
    }
  }
  return {};
}

TokenPlan make_uniform_plan(TokenId token, ProcessId process,
                            std::uint32_t source, std::uint32_t depth,
                            double t_in, double delay, double rank) {
  TokenPlan p;
  p.token = token;
  p.process = process;
  p.source = source;
  p.rank = rank;
  p.times.resize(depth + 1);
  for (std::uint32_t k = 0; k <= depth; ++k) p.times[k] = t_in + k * delay;
  return p;
}

}  // namespace cn
