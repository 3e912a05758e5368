#include "fault/chaos.hpp"

#include <algorithm>
#include <sstream>

#include "fault/fault.hpp"
#include "util/rng.hpp"

namespace cn::fault {

namespace {

bool trigger_less(const ChaosEvent& a, const ChaosEvent& b) {
  if (a.at_ops != b.at_ops) return a.at_ops < b.at_ops;
  return static_cast<std::uint8_t>(a.kind) < static_cast<std::uint8_t>(b.kind);
}

}  // namespace

std::vector<ChaosEvent> ChaosPlan::for_shard(std::uint32_t shard) const {
  std::vector<ChaosEvent> out;
  for (const ChaosEvent& e : events) {
    if (e.kind != ChaosKind::kArrivalBurst && e.shard == shard) {
      out.push_back(e);
    }
  }
  std::sort(out.begin(), out.end(), trigger_less);
  return out;
}

std::vector<ChaosEvent> ChaosPlan::arrival_events() const {
  std::vector<ChaosEvent> out;
  for (const ChaosEvent& e : events) {
    if (e.kind == ChaosKind::kArrivalBurst) out.push_back(e);
  }
  std::sort(out.begin(), out.end(), trigger_less);
  return out;
}

ChaosPlan ChaosPlan::random(std::uint64_t seed, std::uint32_t shards,
                            std::uint64_t horizon_ops, const ChaosMix& mix) {
  ChaosPlan plan;
  if (shards == 0 || horizon_ops == 0) return plan;
  // The chaos stream is derived exactly like every other fault stream so
  // a (seed, shards, horizon, mix) tuple always composes the same
  // schedule, independent of who asks.
  Xoshiro256 rng(fault_seed(seed, horizon_ops, /*stream=*/777));
  const std::uint64_t lo = horizon_ops / 8;
  const std::uint64_t hi = horizon_ops > 1 ? horizon_ops - 1 : 0;
  // Per-shard trigger spacing: keep worker events at least one stall
  // window apart so schedules never overlap on a shard.
  std::vector<std::vector<std::uint64_t>> taken(shards);
  auto draw_slot = [&](std::uint32_t shard) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const std::uint64_t at = rng.range(lo, hi);
      bool clear = true;
      for (const std::uint64_t o : taken[shard]) {
        const std::uint64_t gap = at > o ? at - o : o - at;
        if (gap < std::max<std::uint64_t>(mix.window_ops, 1)) {
          clear = false;
          break;
        }
      }
      if (clear) {
        taken[shard].push_back(at);
        return at;
      }
    }
    taken[shard].push_back(hi);
    return hi;  // Degenerate horizon: park the event at the end.
  };
  for (std::uint32_t i = 0; i < mix.crashes; ++i) {
    ChaosEvent e;
    e.kind = ChaosKind::kWorkerCrash;
    e.shard = static_cast<std::uint32_t>(rng.range(0, shards - 1));
    e.at_ops = draw_slot(e.shard);
    plan.events.push_back(e);
  }
  for (std::uint32_t i = 0; i < mix.stall_windows; ++i) {
    ChaosEvent e;
    e.kind = ChaosKind::kStallWindow;
    e.shard = static_cast<std::uint32_t>(rng.range(0, shards - 1));
    e.at_ops = draw_slot(e.shard);
    e.duration_ops = mix.window_ops;
    e.stall_ns = mix.stall_ns;
    plan.events.push_back(e);
  }
  for (std::uint32_t i = 0; i < mix.bursts; ++i) {
    ChaosEvent e;
    e.kind = ChaosKind::kArrivalBurst;
    e.at_ops = rng.range(lo, hi);
    e.duration_ops = mix.burst_ops;
    e.rate_factor = mix.burst_factor;
    plan.events.push_back(e);
  }
  std::sort(plan.events.begin(), plan.events.end(), trigger_less);
  return plan;
}

std::string ChaosPlan::describe() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ChaosEvent& e = events[i];
    if (i > 0) os << "; ";
    os << chaos_kind_name(e.kind) << " at=" << e.at_ops;
    switch (e.kind) {
      case ChaosKind::kWorkerCrash:
        os << " shard=" << e.shard << " lose=" << e.lose;
        break;
      case ChaosKind::kStallWindow:
        os << " shard=" << e.shard << " ops=" << e.duration_ops
           << " stall_ns=" << e.stall_ns;
        break;
      case ChaosKind::kArrivalBurst:
        os << " ops=" << e.duration_ops << " x" << e.rate_factor;
        break;
    }
  }
  return os.str();
}

}  // namespace cn::fault
