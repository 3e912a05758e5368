#include "sim/timing.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

namespace cn {

TimingParameters measure_timing(const TimedExecution& exec) {
  TimingParameters t;
  if (exec.plans.empty()) {
    t.c_min = 0.0;
    return t;
  }
  // Wire delays.
  for (std::size_t i = 0; i < exec.plans.size(); ++i) {
    const std::span<const double> row = exec.times_of(i);
    double local_min = std::numeric_limits<double>::infinity();
    for (std::size_t k = 1; k < row.size(); ++k) {
      const double d = row[k] - row[k - 1];
      t.c_min = std::min(t.c_min, d);
      t.c_max = std::max(t.c_max, d);
      local_min = std::min(local_min, d);
    }
    const ProcessId proc = exec.plans[i].process;
    const auto it = t.c_min_p.find(proc);
    if (it == t.c_min_p.end()) {
      t.c_min_p[proc] = local_min;
    } else {
      it->second = std::min(it->second, local_min);
    }
  }
  // Local inter-operation delays: consecutive tokens of the same process.
  struct Interval {
    ProcessId process;
    double t_in;
    double t_out;
  };
  std::vector<Interval> plans;
  plans.reserve(exec.plans.size());
  for (std::size_t i = 0; i < exec.plans.size(); ++i) {
    plans.push_back({exec.plans[i].process, exec.t_in(i), exec.t_out(i)});
  }
  std::sort(plans.begin(), plans.end(), [](const Interval& a, const Interval& b) {
    if (a.process != b.process) return a.process < b.process;
    return a.t_in < b.t_in;
  });
  for (std::size_t i = 1; i < plans.size(); ++i) {
    if (plans[i].process != plans[i - 1].process) continue;
    const double gap = plans[i].t_in - plans[i - 1].t_out;
    const auto it = t.C_L_p.find(plans[i].process);
    if (it == t.C_L_p.end()) {
      t.C_L_p[plans[i].process] = gap;
    } else {
      it->second = std::min(it->second, gap);
    }
    t.C_L = t.C_L ? std::min(*t.C_L, gap) : gap;
  }
  // Global delay: min over non-overlapping ordered pairs (T, T') of
  // t_in(T') - t_out(T). For each completion time, the tightest partner
  // is the earliest entry time at or after it.
  std::vector<double> ins, outs;
  ins.reserve(plans.size());
  outs.reserve(plans.size());
  for (const Interval& p : plans) {
    ins.push_back(p.t_in);
    outs.push_back(p.t_out);
  }
  std::sort(ins.begin(), ins.end());
  std::sort(outs.begin(), outs.end());
  for (const double out : outs) {
    const auto it = std::lower_bound(ins.begin(), ins.end(), out);
    if (it != ins.end()) {
      const double gap = *it - out;
      t.C_g = t.C_g ? std::min(*t.C_g, gap) : gap;
    }
  }
  return t;
}

bool satisfies(const TimedExecution& exec, const TimingCondition& cond) {
  const TimingParameters t = measure_timing(exec);
  constexpr double kEps = 1e-9;
  if (t.c_min < cond.c_min - kEps) return false;
  if (t.c_max > cond.c_max + kEps) return false;
  if (cond.C_L_at_least && t.C_L && *t.C_L < *cond.C_L_at_least - kEps) {
    return false;
  }
  if (cond.C_g_at_least && t.C_g && *t.C_g < *cond.C_g_at_least - kEps) {
    return false;
  }
  return true;
}

bool theorem41_premise_holds(const Network& net, const TimingCondition& cond) {
  if (!cond.C_L_at_least) return false;
  return net.depth() * (cond.c_max - 2.0 * cond.c_min) < *cond.C_L_at_least;
}

}  // namespace cn
