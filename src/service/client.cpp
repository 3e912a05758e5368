#include "service/client.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace cn::service {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The outcome a completion slot's value means (0: still pending).
SubmitStatus status_of(std::uint64_t v) noexcept {
  if (v == 0) return SubmitStatus::kTimedOut;
  if (v == kDroppedSignal) return SubmitStatus::kDropped;
  if (v == kRejectedSignal) return SubmitStatus::kRejected;
  return SubmitStatus::kCompleted;
}

}  // namespace

std::uint64_t backoff_ns(std::uint32_t attempt, Xoshiro256& rng) {
  // min(base << attempt, max), doubling only until the cap, so no
  // attempt count can overflow the shift. Jitter ½: the sleep is drawn
  // uniformly from [b / 2, b].
  std::uint64_t b = kBackoffBaseNs;
  for (std::uint32_t i = 0; i < attempt && b < kBackoffMaxNs; ++i) b <<= 1;
  b = std::min(b, kBackoffMaxNs);
  const double u = rng.unit();
  return static_cast<std::uint64_t>(static_cast<double>(b) *
                                    (0.5 + 0.5 * u));
}

std::uint32_t thread_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {  // 0: this thread.
    return static_cast<std::uint32_t>(CPU_COUNT(&set));
  }
#endif
  return 0;
}

std::uint64_t wait_done(const std::atomic<std::uint64_t>& done,
                        std::uint64_t deadline_at_ns,
                        const SubmitPolicy& policy, EventCount* ec) {
  // Three gears — pure spin (cheap for a fast completion on another
  // CPU), yields, then timed parks — every width a policy knob, the
  // schedule the pure spin_can_pay and wait_step_ns. A thread confined to
  // one CPU skips the spin: a worker that shares the CPU cannot store the
  // slot while the client spins, and a yield lets it run. With the
  // service's completion
  // eventcount the park gear wakes on the worker's notify instead of
  // sleeping out its period, so low-load latency is no longer quantized
  // by the park width; the deadline bounds each park either way.
  thread_local const bool spin = spin_can_pay(thread_cpus());
  std::uint64_t v = 0;
  for (std::uint32_t s = 0; spin && s < policy.spin_limit; ++s) {
    if ((v = done.load(std::memory_order_acquire)) != 0) return v;
  }
  std::uint64_t round = 0;
  for (;;) {
    if ((v = done.load(std::memory_order_acquire)) != 0) return v;
    std::uint64_t now = 0;
    if (deadline_at_ns > 0 && (now = now_ns()) >= deadline_at_ns) return 0;
    const std::uint64_t step = wait_step_ns(policy, round++);
    if (step == 0) {
      std::this_thread::yield();
      continue;
    }
    if (ec != nullptr) {
      const std::uint32_t key = ec->prepare_wait();
      if ((v = done.load(std::memory_order_acquire)) != 0) {
        ec->cancel_wait();
        return v;
      }
      if (now == 0) now = now_ns();
      std::uint64_t park_deadline = now + step;
      if (deadline_at_ns > 0 && deadline_at_ns < park_deadline) {
        park_deadline = deadline_at_ns;
      }
      ec->commit_wait(key, park_deadline, now);
    } else {
      std::this_thread::sleep_for(std::chrono::nanoseconds(step));
    }
  }
}

PolicyClient::PolicyClient(CountingService& svc, const SubmitPolicy& policy,
                           std::uint32_t id, std::uint64_t seed)
    : svc_(svc),
      policy_(policy),
      id_(id),
      rng_(seed ^ (0x9e3779b97f4a7c15ULL * (id + 1))) {}

PolicyClient::Slot* PolicyClient::acquire_slots(std::uint32_t n) {
  // Reclaim orphans whose stores all arrived since the timeout; the
  // front of the deque is the oldest lease, so one check per submit
  // keeps the list bounded by the number of still-outstanding timeouts.
  while (!orphans_.empty() &&
         std::all_of(orphans_.front().slots.get(),
                     orphans_.front().slots.get() + orphans_.front().n,
                     [](const Slot& s) {
                       return s.load(std::memory_order_acquire) != 0;
                     })) {
    orphans_.pop_front();
  }
  if (capacity_ < n) {
    slots_ = std::make_unique<Slot[]>(n);
    capacity_ = n;
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    slots_[i].store(0, std::memory_order_relaxed);
  }
  return slots_.get();
}

void PolicyClient::orphan_slots(std::uint32_t n) {
  // The deadline expired while requests were in flight: the service may
  // still store into their slots, so lease the array out and move on.
  orphans_.push_back({std::move(slots_), n});
  capacity_ = 0;
}

template <typename Attempt>
SubmitStatus PolicyClient::admit(std::uint64_t deadline, std::uint32_t& retries,
                                 Attempt&& attempt) {
  std::uint32_t tries = 0;
  SubmitStatus status = SubmitStatus::kCompleted;
  while (!attempt()) {
    if (deadline > 0 && now_ns() >= deadline) {
      status = SubmitStatus::kTimedOut;
      break;
    }
    if (policy_.max_retries > 0 && tries >= policy_.max_retries) {
      status = SubmitStatus::kRejected;
      break;
    }
    const std::uint64_t b = backoff_ns(tries, rng_);
    stats_.backoff_ns_total += b;
    std::this_thread::sleep_for(std::chrono::nanoseconds(b));
    ++tries;
  }
  retries = tries;
  stats_.retries += tries;
  return status;
}

void PolicyClient::count(SubmitStatus status, std::uint32_t n) {
  switch (status) {
    case SubmitStatus::kCompleted: stats_.completed += n; return;
    case SubmitStatus::kDropped: stats_.dropped += n; return;
    case SubmitStatus::kRejected: stats_.rejected += n; return;
    case SubmitStatus::kTimedOut:
      // The service counts the same requests.
      stats_.timed_out += n;
      svc_.count_timeout(n);
      return;
  }
}

SubmitReport PolicyClient::submit(std::uint64_t arrival_ns) {
  SubmitReport rep;
  const std::uint64_t deadline_at =
      policy_.deadline_ns > 0 ? now_ns() + policy_.deadline_ns : 0;
  Slot* slot = acquire_slots(1);
  // A request never accepted leaves its slot clean for reuse.
  rep.status = admit(deadline_at, rep.retries, [&] {
    return svc_.try_submit(id_, arrival_ns, slot);
  });
  if (rep.status == SubmitStatus::kCompleted) {
    const std::uint64_t v =
        wait_done(*slot, deadline_at, policy_, &svc_.completion_event());
    rep.status = status_of(v);
    if (rep.status == SubmitStatus::kCompleted) rep.value = v - 1;
    if (rep.status == SubmitStatus::kTimedOut) orphan_slots(1);
  }
  count(rep.status, 1);
  return rep;
}

BatchReport PolicyClient::submit_batch(std::uint64_t arrival_ns,
                                       std::uint32_t n) {
  BatchReport rep;
  if (n == 0) return rep;
  const std::uint64_t deadline_at =
      policy_.deadline_ns > 0 ? now_ns() + policy_.deadline_ns : 0;
  Slot* slots = acquire_slots(n);

  // A fully shed (or admission-closed) batch drew no tickets and left
  // no slot stored — retry it whole, on the single path's backoff
  // schedule. Any partial acceptance commits the batch: its tickets
  // exist, so the outcome is whatever the slots resolve to.
  CountingService::BatchResult res;
  const SubmitStatus admitted = admit(deadline_at, rep.retries, [&] {
    res = svc_.submit_batch(id_, arrival_ns, slots, n);
    return res.accepted + res.rejected > 0;
  });
  if (admitted != SubmitStatus::kCompleted) {
    // Never accepted: the slots stay clean for reuse.
    (admitted == SubmitStatus::kTimedOut ? rep.timed_out : rep.rejected) = n;
    count(admitted, n);
    return rep;
  }

  rep.values.reserve(res.accepted);
  for (std::uint32_t i = 0; i < n; ++i) {
    // Once the shared deadline expires, the remaining waits degrade to
    // one load each — the loop still classifies every slot whose store
    // already arrived.
    const std::uint64_t v =
        wait_done(slots[i], deadline_at, policy_, &svc_.completion_event());
    const SubmitStatus status = status_of(v);
    count(status, 1);
    switch (status) {
      case SubmitStatus::kCompleted:
        ++rep.completed;
        rep.values.push_back(v - 1);
        break;
      case SubmitStatus::kDropped: ++rep.dropped; break;
      case SubmitStatus::kRejected: ++rep.rejected; break;
      case SubmitStatus::kTimedOut: ++rep.timed_out; break;
    }
  }
  if (rep.timed_out > 0) orphan_slots(n);
  return rep;
}

}  // namespace cn::service
