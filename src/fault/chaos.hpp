// Deterministic chaos schedules for the sharded counting service.
//
// A ChaosPlan is a finite list of timed events. "Time" for a worker-side
// event is the shard worker's PROCESSED-REQUEST count, not a wall clock:
// the trigger "crash after the shard-2 worker has dequeued 5000
// requests" fires at exactly the same logical point in every execution
// of the same workload, which is what makes a recovery replayable — the
// whole point of the engine's determinism discipline. Arrival-side
// events (queue-saturation bursts) are consumed by open-loop load
// generators and keyed on the generator's submission count for the same
// reason.
//
// Three event kinds compose a schedule:
//
//   kWorkerCrash   the shard worker dies after processing `at_ops`
//                  requests. Before dying it consumes-and-abandons
//                  exactly `lose` further requests (a crash that takes
//                  its in-flight tickets with it); each abandoned ticket
//                  is a residue hole the service accounts under
//                  `crash_lost`. The supervisor detects the death and
//                  respawns the worker on the same shard network, so
//                  the shard's residue class resumes exactly where the
//                  dead worker left it (Lemma 3.1 accounting survives).
//   kStallWindow   the worker sleeps `stall_ns` before each batch while
//                  its processed count lies in [at_ops, at_ops +
//                  duration_ops) — a wedged-but-alive worker, visible
//                  to the supervisor as heartbeat age.
//   kArrivalBurst  an open-loop generator multiplies its offered rate
//                  by `rate_factor` for `duration_ops` submissions
//                  starting at its `at_ops`-th submission — a
//                  queue-saturation burst that exercises the admission
//                  watermarks.
//
// ChaosPlan::random composes a seed-driven schedule (the soak mode's
// default); hand-built plans are plain aggregate literals.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cn::fault {

enum class ChaosKind : std::uint8_t {
  kWorkerCrash = 0,
  kStallWindow,
  kArrivalBurst,
};

inline const char* chaos_kind_name(ChaosKind kind) noexcept {
  switch (kind) {
    case ChaosKind::kWorkerCrash: return "worker_crash";
    case ChaosKind::kStallWindow: return "stall_window";
    case ChaosKind::kArrivalBurst: return "arrival_burst";
  }
  return "unknown";
}

struct ChaosEvent {
  ChaosKind kind = ChaosKind::kWorkerCrash;
  std::uint32_t shard = 0;        ///< Worker-side events: target shard.
  std::uint64_t at_ops = 0;       ///< Trigger point (processed requests
                                  ///< for worker events, submissions for
                                  ///< arrival events).
  std::uint64_t lose = 0;         ///< kWorkerCrash: tickets the crash
                                  ///< abandons before the worker dies.
  std::uint64_t duration_ops = 0; ///< kStallWindow / kArrivalBurst span.
  std::uint64_t stall_ns = 0;     ///< kStallWindow: per-batch sleep.
  double rate_factor = 1.0;       ///< kArrivalBurst: offered-rate scale.
};

/// Knobs for ChaosPlan::random.
struct ChaosMix {
  std::uint32_t crashes = 1;
  std::uint32_t stall_windows = 1;
  std::uint32_t bursts = 1;
  std::uint64_t stall_ns = 200000;    ///< 0.2 ms per stalled batch.
  std::uint64_t window_ops = 256;     ///< Stall-window length.
  std::uint64_t burst_ops = 512;      ///< Burst length (submissions).
  double burst_factor = 8.0;          ///< Rate multiplier in a burst.
};

struct ChaosPlan {
  std::vector<ChaosEvent> events;

  bool enabled() const noexcept { return !events.empty(); }

  /// Worker-side events for one shard, sorted by trigger point. The
  /// service hands each worker its slice once at start.
  std::vector<ChaosEvent> for_shard(std::uint32_t shard) const;

  /// Arrival-side events (kArrivalBurst), sorted by trigger point.
  std::vector<ChaosEvent> arrival_events() const;

  /// Seed-driven schedule: `crashes`/`stall_windows`/`bursts` events with
  /// trigger points drawn uniformly over [horizon_ops/8, horizon_ops)
  /// and shards drawn uniformly — deterministic in (seed, shards,
  /// horizon_ops, mix). Events never overlap on a shard: triggers are
  /// spaced at least `mix.window_ops` apart per shard. Its crashes lose
  /// no tickets (`lose` 0); a lossy crash is a hand-built event.
  static ChaosPlan random(std::uint64_t seed, std::uint32_t shards,
                          std::uint64_t horizon_ops, const ChaosMix& mix);

  /// One line per event, for logs and JSON provenance.
  std::string describe() const;
};

}  // namespace cn::fault
