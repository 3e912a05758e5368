// EventCount: a futex-style park/unpark primitive for "wait until a
// condition someone else advances" without a mutex around the condition
// and without sleep-polling (the service's previous idle gear was a
// hardcoded 50 µs sleep — latency quantized by the period at low load,
// wasted wakeups at high load).
//
// The state is one 64-bit word: the low 32 bits are a wait EPOCH (the
// futex word), the high 32 bits count committed-or-preparing waiters.
// The protocol is the classic eventcount dance:
//
//   waiter                                notifier
//   ------                                --------
//   key = prepare_wait()   // waiters++   advance the condition
//   if (condition) {                      notify_all()  // epoch++, wake
//     cancel_wait();       // waiters--
//     consume
//   } else {
//     commit_wait(key)     // sleep iff epoch still == key
//     re-check condition
//   }
//
// Why there is no missed wakeup: notify_all() ALWAYS bumps the epoch with
// one RMW on the same word prepare_wait() RMWs, so the two sides are
// totally ordered by the word's modification order. If the waiter's
// increment came first, the notifier sees the waiter bit and issues the
// futex wake; if the notifier's bump came first, the waiter's key is
// stale and commit_wait() returns without sleeping. Either way the
// waiter re-checks the condition after an acquire read of the word that
// observed the notifier's acq_rel RMW, so the condition write that
// preceded notify_all() is visible. The condition itself needs no
// stronger ordering than its natural release/acquire pair.
//
// notify_if_waiters() is the cheap variant for hot producers (e.g. one
// notify per enqueued request): it only LOADS the word, and skips the
// RMW when no waiter is registered. That opens a store-buffer window —
// the producer reads a stale zero count while the waiter re-checks a
// stale condition — which two seq_cst fences close. The producer writes
// the condition, then fences (F_p) and loads the count; the waiter
// registers (RMW), then fences (F_w) and re-checks. Seq_cst fences are
// totally ordered: if F_p comes first, the re-check sees the condition;
// if F_w does, the load sees the registration (or a later value, which
// only a waiter that is already awake leaves) and the producer
// notifies. The waiter needs its own fence because in C++20 a seq_cst
// RMW does not order the acquire or relaxed re-check after it (on x86
// the locked RMW does). No wake-up depends on commit_wait()'s deadline.
//
// On Linux commit_wait() parks in the kernel via the futex syscall on
// the epoch half-word (with FUTEX_WAIT's relative timeout for
// deadlines); elsewhere it degrades to a mutex + condition_variable
// keyed on the same epoch word. Timed waits are what keep the
// SubmitPolicy deadline guarantee intact: a parked client wakes on its
// deadline even if no notify ever arrives.
#pragma once

#include <atomic>
#include <cstdint>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <ctime>
#else
#include <condition_variable>
#include <mutex>
#endif

namespace cn {

class EventCount {
 public:
  EventCount() = default;
  EventCount(const EventCount&) = delete;
  EventCount& operator=(const EventCount&) = delete;

  /// Registers this thread as a waiter and returns the wait key (the
  /// current epoch). MUST be balanced by exactly one cancel_wait() or
  /// commit_wait(). The fence orders the condition check that follows
  /// after the registration (F_w in the header comment).
  std::uint32_t prepare_wait() noexcept {
    const std::uint64_t prev =
        state_.fetch_add(kWaiterInc, std::memory_order_seq_cst);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    return static_cast<std::uint32_t>(prev & kEpochMask);
  }

  /// Deregisters without sleeping (the condition was already true).
  void cancel_wait() noexcept {
    state_.fetch_sub(kWaiterInc, std::memory_order_seq_cst);
  }

  /// Parks until the epoch moves past `key` (a notify arrived) or
  /// `deadline_ns` (steady-clock absolute, 0 = no deadline) expires.
  /// Returns false only on deadline expiry. Always deregisters.
  bool commit_wait(std::uint32_t key, std::uint64_t deadline_ns = 0,
                   std::uint64_t now_ns = 0) noexcept {
    bool notified = true;
    for (;;) {
      const std::uint64_t s = state_.load(std::memory_order_acquire);
      if (static_cast<std::uint32_t>(s & kEpochMask) != key) break;
      if (deadline_ns > 0) {
        const std::uint64_t now = now_ns != 0 ? now_ns : steady_now_ns();
        now_ns = 0;  // Only trust the caller's clock for the first lap.
        if (now >= deadline_ns) {
          notified = false;
          break;
        }
        if (!park(key, deadline_ns - now)) {
          notified = false;
          break;
        }
      } else {
        park(key, 0);
      }
    }
    state_.fetch_sub(kWaiterInc, std::memory_order_seq_cst);
    return notified;
  }

  /// Wakes every committed waiter. Always one RMW (the epoch bump); the
  /// futex syscall is skipped when nobody is registered.
  void notify_all() noexcept {
    const std::uint64_t prev =
        state_.fetch_add(1, std::memory_order_seq_cst);  // epoch bump
    if ((prev & kWaiterMask) != 0) wake();
  }

  /// Hot-path notify: a fence (F_p in the header comment) and a load,
  /// and no RMW when no waiter is registered.
  void notify_if_waiters() noexcept {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if ((state_.load(std::memory_order_relaxed) & kWaiterMask) != 0) {
      notify_all();
    }
  }

  /// True when at least one waiter is registered (racy, for tests).
  bool has_waiters() const noexcept {
    return (state_.load(std::memory_order_seq_cst) & kWaiterMask) != 0;
  }

 private:
  static constexpr std::uint64_t kEpochMask = 0xffffffffull;
  static constexpr std::uint64_t kWaiterInc = 1ull << 32;
  static constexpr std::uint64_t kWaiterMask = ~kEpochMask;

  static std::uint64_t steady_now_ns() noexcept {
#if defined(__linux__)
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
#else
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
#endif
  }

#if defined(__linux__)
  /// The futex word is the low half of state_ — on every Linux target we
  /// support, the first 4 bytes of the little-endian 64-bit word.
  std::uint32_t* epoch_word() noexcept {
    static_assert(sizeof(std::atomic<std::uint64_t>) == 8);
    return reinterpret_cast<std::uint32_t*>(&state_);
  }

  /// Returns false on deadline expiry (timeout_ns > 0 only).
  bool park(std::uint32_t key, std::uint64_t timeout_ns) noexcept {
    timespec ts{};
    timespec* tsp = nullptr;
    if (timeout_ns > 0) {
      ts.tv_sec = static_cast<time_t>(timeout_ns / 1'000'000'000ull);
      ts.tv_nsec = static_cast<long>(timeout_ns % 1'000'000'000ull);
      tsp = &ts;
    }
    const long rc = syscall(SYS_futex, epoch_word(),
                            FUTEX_WAIT | FUTEX_PRIVATE_FLAG, key, tsp,
                            nullptr, 0);
    return !(rc == -1 && errno == ETIMEDOUT);
  }

  void wake() noexcept {
    syscall(SYS_futex, epoch_word(), FUTEX_WAKE | FUTEX_PRIVATE_FLAG,
            INT32_MAX, nullptr, nullptr, 0);
  }
#else
  bool park(std::uint32_t key, std::uint64_t timeout_ns) noexcept {
    std::unique_lock<std::mutex> lock(mu_);
    const auto epoch_moved = [&] {
      return static_cast<std::uint32_t>(
                 state_.load(std::memory_order_acquire) & kEpochMask) != key;
    };
    if (timeout_ns > 0) {
      return cv_.wait_for(lock, std::chrono::nanoseconds(timeout_ns),
                          epoch_moved);
    }
    cv_.wait(lock, epoch_moved);
    return true;
  }

  void wake() noexcept {
    { std::lock_guard<std::mutex> lock(mu_); }  // Order against park's check.
    cv_.notify_all();
  }
#endif

  std::atomic<std::uint64_t> state_{0};
#if !defined(__linux__)
  std::mutex mu_;
  std::condition_variable cv_;
#endif
};

}  // namespace cn
