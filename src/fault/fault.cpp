#include "fault/fault.hpp"

#include <algorithm>
#include <cstddef>
#include <map>
#include <vector>

#include "sim/simulator.hpp"

namespace cn::fault {

std::uint64_t fault_seed(std::uint64_t plan_seed, std::uint64_t run_seed,
                         std::uint64_t stream) {
  // Two SplitMix64 hops fully mix the three inputs; the constants keep
  // (plan, run, stream) triples that differ in one coordinate far apart.
  SplitMix64 outer(plan_seed ^ 0xf10a7ed1715ULL);
  SplitMix64 inner(outer.next() ^ (run_seed * 0x9e3779b97f4a7c15ULL) ^
                   (stream + 1) * 0xbf58476d1ce4e5b9ULL);
  return inner.next();
}

SimFaults draw_sim_faults(const Network& net, const TimedExecution& exec,
                          const FaultPlan& plan, std::uint64_t run_seed) {
  SimFaults f;
  f.stuck.assign(net.num_balancers(), false);
  f.lost_before_hop.assign(exec.plans.size(), kCompletes);
  if (!plan.sim_faults()) return f;

  FaultStream stream(plan, run_seed);
  const std::uint32_t d = net.depth();
  // Loses the token somewhere strictly before its counter crossing but
  // after at least one balancer (a genuine mid-traversal vanish). A
  // depth-0 network has no such point: the token is simply never seen.
  const auto mid_traversal_hop = [&]() -> std::uint32_t {
    return d == 0 ? 0
                  : static_cast<std::uint32_t>(stream.pick(1, d));
  };

  // 1. Stuck balancers, ascending index.
  for (NodeIndex b = 0; b < net.num_balancers(); ++b) {
    if (stream.flip(plan.p_stuck_balancer)) {
      f.stuck[b] = true;
      ++f.balancers_stuck;
    }
  }

  // 2. Process crashes, ascending process id. The crash victim is one of
  // the process's tokens (uniform over its plans, in plan order); its
  // later tokens are never issued.
  if (plan.p_process_crash > 0.0) {
    std::map<ProcessId, std::vector<std::uint32_t>> by_process;
    for (std::uint32_t i = 0; i < exec.plans.size(); ++i) {
      by_process[exec.plans[i].process].push_back(i);
    }
    for (const auto& [proc, indices] : by_process) {
      if (!stream.flip(plan.p_process_crash)) continue;
      ++f.processes_crashed;
      const std::size_t victim =
          static_cast<std::size_t>(stream.pick(0, indices.size() - 1));
      f.lost_before_hop[indices[victim]] = mid_traversal_hop();
      if (f.lost_before_hop[indices[victim]] > 0) ++f.tokens_lost;
      for (std::size_t k = victim + 1; k < indices.size(); ++k) {
        f.lost_before_hop[indices[k]] = 0;
        ++f.tokens_not_issued;
      }
    }
  }

  // 3. Independent token loss, plan order, skipping already-doomed plans.
  if (plan.p_token_loss > 0.0) {
    for (std::uint32_t& doom : f.lost_before_hop) {
      if (doom != kCompletes) continue;
      if (!stream.flip(plan.p_token_loss)) continue;
      doom = mid_traversal_hop();
      if (doom > 0) {
        ++f.tokens_lost;
      } else {
        ++f.tokens_not_issued;
      }
    }
  }
  return f;
}

Degradation degradation(const Trace& trace, std::uint32_t fan_out) {
  DegradationAccumulator acc;
  acc.on_records(trace);
  return acc.result(fan_out);
}

void DegradationAccumulator::add_rare_value(Value v) {
  if (v < dense_limit()) {
    value_seen_.resize(static_cast<std::size_t>(v) + 1, false);
    value_seen_[v] = true;
  } else {
    value_spill_.push_back(v);
  }
}

void DegradationAccumulator::add_rare_sink(std::uint32_t sink) {
  if (sink < dense_limit()) {
    sink_counts_.resize(std::size_t{sink} + 1, 0);
    ++sink_counts_[sink];
  } else {
    sink_spill_.push_back(sink);
  }
}

void DegradationAccumulator::reset() {
  records_ = 0;
  duplicate_value_ = false;
  value_seen_.clear();
  value_spill_.clear();
  sink_counts_.clear();
  sink_spill_.clear();
}

Degradation DegradationAccumulator::result(std::uint32_t fan_out) const {
  Degradation d;
  if (records_ == 0) return d;

  // The sorted values equal {0..n-1} iff there is no duplicate and every
  // value is below n (n distinct values in [0, n) cover the range). A
  // spilled value repeats if another spilled copy or its bitmap bit (set
  // after it spilled) exists.
  std::vector<Value> values = value_spill_;
  std::sort(values.begin(), values.end());
  Value max_value = value_seen_.empty() ? 0 : value_seen_.size() - 1;
  if (!values.empty()) max_value = std::max(max_value, values.back());
  bool violation = duplicate_value_ || max_value >= records_;
  for (std::size_t i = 0; i < values.size() && !violation; ++i) {
    const Value v = values[i];
    violation = (i > 0 && values[i - 1] == v) ||
                (v < value_seen_.size() && value_seen_[v]);
  }
  if (violation) d.counting_violation = 1.0;

  // Per-sink exit counts over every sink of the network: a sink no
  // (surviving) token exited through counts as zero, which is exactly
  // the imbalance a stuck balancer or heavy loss produces. The sinks are
  // [0, max(fan_out, largest sink + 1)), counted in 64 bits. A spilled
  // record adds to its sink's dense count when the dense array has since
  // grown past it.
  std::vector<std::uint32_t> sinks = sink_spill_;
  std::sort(sinks.begin(), sinks.end());
  std::uint64_t lo = ~0ull, hi = 0;
  const auto take = [&](std::uint64_t c) {
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  };
  auto it = sinks.begin();
  for (std::size_t j = 0; j < sink_counts_.size(); ++j) {
    std::uint64_t c = sink_counts_[j];
    for (; it != sinks.end() && *it == j; ++it) ++c;
    take(c);
  }
  std::uint64_t sparse = 0;  // Distinct sinks past the dense array.
  while (it != sinks.end()) {
    const auto run = std::upper_bound(it, sinks.end(), *it);
    take(static_cast<std::uint64_t>(run - it));
    ++sparse;
    it = run;
  }
  std::uint64_t range = std::max<std::uint64_t>(fan_out, sink_counts_.size());
  if (!sinks.empty()) range = std::max(range, std::uint64_t{sinks.back()} + 1);
  if (sink_counts_.size() + sparse < range) take(0);
  d.smoothness_gap = static_cast<double>(hi - lo);
  d.smoothness_violation = d.smoothness_gap > 1.0 ? 1.0 : 0.0;
  return d;
}

}  // namespace cn::fault
