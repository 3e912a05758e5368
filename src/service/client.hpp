// Resilient service clients: bounded retries with seeded exponential
// backoff, per-request deadlines, and a spin-yield-park completion wait
// that can never hang — the client-side half of the self-healing
// service.
//
// The bare protocol (`try_submit` + spin on the completion slot) has two
// failure modes this layer closes:
//
//   * unbounded retry: a saturated or shedding service turns the naive
//     `while (!try_submit()) yield()` loop into a spin storm. The
//     SubmitPolicy bounds the attempts, and exponential backoff spaces
//     them, its jitter drawn from the CLIENT's seeded rng — two runs
//     with the same seed produce the identical retry schedule
//     (backoff_ns is a pure function of (attempt, rng state)), so
//     resilience experiments replay like everything else.
//   * unbounded wait: a request queued to a crashed shard completes only
//     after recovery (or never, unsupervised). wait_done spins briefly
//     (not on a thread that may run on one CPU only; see spin_can_pay),
//     then yields, then PARKS on the service's completion eventcount
//     (falling back to timed sleeps without one), checking the deadline
//     throughout; a timed-out client walks away with kTimedOut instead
//     of hanging. Every gear width is a SubmitPolicy knob, and
//     both the spin decision (spin_can_pay) and the gear engaged at each
//     round (wait_step_ns) are pure functions — the schedule is testable
//     without a clock.
//
// Deadline waits create a lifetime hazard the PolicyClient solves: a
// worker may store into the completion slot AFTER the client gave up, so
// a timed-out slot cannot live on the client's stack. PolicyClient owns
// its slots on the heap and parks timed-out ones in an orphan list,
// reclaiming each once its store arrives (the service guarantees every
// accepted request's slot is eventually stored — completion, drop
// signal, or the shutdown scavenge). Destroy the client only after
// CountingService::stop() returns; then every orphan has resolved.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>

#include "service/config.hpp"
#include "service/service.hpp"
#include "util/rng.hpp"

namespace cn::service {

/// The backoff before a client's first retry, and the cap its doubling
/// stops at.
inline constexpr std::uint64_t kBackoffBaseNs = 2'000;
inline constexpr std::uint64_t kBackoffMaxNs = 1'000'000;

/// The backoff before retry `attempt` (0-based): b = min(kBackoffBaseNs
/// << attempt, kBackoffMaxNs), drawn uniformly from [b / 2, b] with one
/// `rng` draw. Pure in (attempt, rng state) — the determinism the
/// backoff-schedule tests pin down.
std::uint64_t backoff_ns(std::uint32_t attempt, Xoshiro256& rng);

enum class SubmitStatus : std::uint8_t {
  kCompleted = 0,  ///< Value received.
  kDropped,        ///< Worker abandoned the request (kDroppedSignal).
  kRejected,       ///< Retries exhausted against shed/queue-full.
  kTimedOut,       ///< Deadline expired (submitting or waiting).
};

struct SubmitReport {
  SubmitStatus status = SubmitStatus::kCompleted;
  std::uint64_t value = 0;   ///< Valid when status == kCompleted.
  std::uint32_t retries = 0; ///< Re-submission attempts consumed.
};

/// Aggregate outcomes of one client, for the benches and the engine.
struct ClientStats {
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t dropped = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t retries = 0;       ///< Total re-submissions.
  std::uint64_t backoff_ns_total = 0;
};

/// The post-spin wait gear engaged at (0-based) round `round`: 0 means
/// "yield this round", a positive value means "park/sleep this many ns".
/// Pure in (policy, round) — the determinism test pins the schedule
/// without touching a clock.
inline std::uint64_t wait_step_ns(const SubmitPolicy& policy,
                                  std::uint64_t round) noexcept {
  return round < policy.yield_limit ? 0 : policy.park_ns;
}

/// Whether wait_done's spin gear runs for a thread whose affinity mask
/// allows `cpus` CPUs (0: the mask could not be read). A spin ends a wait
/// only if the worker stores the slot while the spin runs, so only if the
/// worker runs on another CPU at that time. A thread confined to one CPU
/// skips it: in a process pinned to one CPU (perfbench pins its client
/// threads and the service threads they start to one) the worker shares
/// that CPU and cannot store while the client spins, and the yield gear
/// lets it run. Any other thread spins as it always did. Pure, so a test
/// pins the rule without a clock.
inline bool spin_can_pay(std::uint32_t cpus) noexcept { return cpus != 1; }

/// How many CPUs the calling thread's affinity mask allows; 0 where the
/// mask cannot be read (or off Linux).
std::uint32_t thread_cpus();

/// Waits on a completion slot with an absolute deadline (steady-clock
/// ns; 0 = wait forever), shaped by the policy's spin/yield/park knobs
/// (see wait_step_ns). The spin of spin_limit loads runs only where
/// spin_can_pay(thread_cpus()), read once per thread at its first wait
/// (a thread that narrows its mask later keeps that reading). When `ec`
/// is the service's completion eventcount the park gear blocks in the
/// kernel and wakes on the worker's notify; without one it degrades to
/// timed sleeps. Returns the raw slot value (value + 1, kDroppedSignal,
/// or kRejectedSignal), or 0 on timeout.
std::uint64_t wait_done(const std::atomic<std::uint64_t>& done,
                        std::uint64_t deadline_at_ns,
                        const SubmitPolicy& policy,
                        EventCount* ec = nullptr);

/// Outcome of one PolicyClient::submit_batch call: the per-element
/// counters partition the batch, and `values` holds the completed
/// elements' counter values (in batch-slot order).
struct BatchReport {
  std::uint32_t completed = 0;
  std::uint32_t rejected = 0;   ///< Shed/queue-full after retries, plus
                                ///< per-run kRejectedSignal refusals.
  std::uint32_t dropped = 0;
  std::uint32_t timed_out = 0;
  std::uint32_t retries = 0;
  std::vector<std::uint64_t> values;
};

class PolicyClient {
 public:
  /// `svc` must outlive the client's last submit(); the client itself
  /// must outlive svc.stop() (see the orphan-slot discussion above).
  PolicyClient(CountingService& svc, const SubmitPolicy& policy,
               std::uint32_t id, std::uint64_t seed);

  /// Submits one request and waits for its outcome under the policy.
  SubmitReport submit(std::uint64_t arrival_ns);

  /// Submits `n` requests as ONE service ingress batch and waits out
  /// every element under the policy (one deadline for the whole batch).
  /// A fully shed or closed-admission batch retries with the same
  /// backoff schedule as a refused single; a partially rejected batch
  /// does NOT retry its refused runs (their tickets are burnt — the
  /// refusals are reported as rejected). On deadline expiry the whole
  /// slot array is orphaned, exactly like a single's slot.
  BatchReport submit_batch(std::uint64_t arrival_ns, std::uint32_t n);

  const ClientStats& stats() const noexcept { return stats_; }
  std::uint32_t id() const noexcept { return id_; }

 private:
  using Slot = std::atomic<std::uint64_t>;

  /// Timed-out slots, leased out until every element's store arrives.
  struct Orphan {
    std::unique_ptr<Slot[]> slots;
    std::uint32_t n = 0;
  };

  /// n clean completion slots (a single submit takes one).
  Slot* acquire_slots(std::uint32_t n);
  /// Leases the current n slots out as an orphan.
  void orphan_slots(std::uint32_t n);
  /// Calls `attempt` (true once the service took the submit) on the
  /// policy's backoff schedule, counting the retries: kCompleted once it
  /// succeeds, kTimedOut past the deadline, kRejected out of retries.
  template <typename Attempt>
  SubmitStatus admit(std::uint64_t deadline, std::uint32_t& retries,
                     Attempt&& attempt);
  /// The one place outcomes are counted: n requests ended with `status`.
  void count(SubmitStatus status, std::uint32_t n);

  CountingService& svc_;
  SubmitPolicy policy_;
  std::uint32_t id_;
  Xoshiro256 rng_;
  ClientStats stats_;
  std::unique_ptr<Slot[]> slots_;  ///< Current (reusable) slot array.
  std::uint32_t capacity_ = 0;
  std::deque<Orphan> orphans_;
};

}  // namespace cn::service
