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
  Degradation d;
  if (trace.empty()) return d;

  std::vector<Value> values;
  values.reserve(trace.size());
  std::uint32_t max_sink = 0;
  for (const TokenRecord& rec : trace) {
    values.push_back(rec.value);
    max_sink = std::max(max_sink, rec.sink);
  }
  std::sort(values.begin(), values.end());
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] != static_cast<Value>(i)) {
      d.counting_violation = 1.0;
      break;
    }
  }

  // Per-sink exit counts over every sink of the network: a sink no
  // (surviving) token exited through counts as zero, which is exactly
  // the imbalance a stuck balancer or heavy loss produces.
  const std::uint32_t sinks = std::max(fan_out, max_sink + 1);
  std::vector<std::uint64_t> counts(sinks, 0);
  for (const TokenRecord& rec : trace) ++counts[rec.sink];
  const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
  d.smoothness_gap = static_cast<double>(*hi - *lo);
  d.smoothness_violation = d.smoothness_gap > 1.0 ? 1.0 : 0.0;
  return d;
}

void DegradationAccumulator::on_record(const TokenRecord& record) {
  ++records_;
  if (record.value >= value_seen_.size()) {
    value_seen_.resize(static_cast<std::size_t>(record.value) + 1, false);
  }
  if (value_seen_[record.value]) duplicate_value_ = true;
  value_seen_[record.value] = true;
  if (records_ == 1 || record.value > max_value_) max_value_ = record.value;
  if (record.sink >= sink_counts_.size()) {
    sink_counts_.resize(static_cast<std::size_t>(record.sink) + 1, 0);
  }
  ++sink_counts_[record.sink];
}

void DegradationAccumulator::reset() {
  records_ = 0;
  duplicate_value_ = false;
  max_value_ = 0;
  value_seen_.clear();
  sink_counts_.clear();
}

Degradation DegradationAccumulator::result(std::uint32_t fan_out) const {
  Degradation d;
  if (records_ == 0) return d;
  // The sorted values equal {0..n-1} iff there is no duplicate and every
  // value is below n (n distinct values in [0, n) cover the range).
  if (duplicate_value_ || max_value_ >= records_) d.counting_violation = 1.0;
  const std::size_t sinks =
      std::max<std::size_t>(fan_out, sink_counts_.size());
  std::uint64_t lo = ~0ull, hi = 0;
  for (std::size_t j = 0; j < sinks; ++j) {
    const std::uint64_t c = j < sink_counts_.size() ? sink_counts_[j] : 0;
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  d.smoothness_gap = static_cast<double>(hi - lo);
  d.smoothness_violation = d.smoothness_gap > 1.0 ? 1.0 : 0.0;
  return d;
}

}  // namespace cn::fault
