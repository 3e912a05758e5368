#include "concurrent/harness.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "util/rng.hpp"
#include "util/spin_barrier.hpp"

namespace cn {

namespace {

using Clock = std::chrono::steady_clock;

/// Busy-waits for `ns` nanoseconds, yielding periodically so that paced
/// runs still make progress on machines with fewer cores than threads.
void spin_for_ns(std::uint64_t ns) {
  if (ns == 0) return;
  const auto deadline = Clock::now() + std::chrono::nanoseconds(ns);
  std::uint32_t spins = 0;
  while (Clock::now() < deadline) {
    if (++spins % 128 == 0) std::this_thread::yield();
  }
}

double to_seconds(Clock::time_point t) {
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

std::uint64_t to_ns(Clock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count());
}

}  // namespace

std::string validate(const ConcurrentRunSpec& spec) {
  if (spec.threads == 0) return "spec invalid: threads == 0";
  if (spec.ops_per_thread == 0) return "spec invalid: ops_per_thread == 0";
  if (spec.hop_delay_min_ns > spec.hop_delay_max_ns) {
    return "spec invalid: hop_delay_min_ns > hop_delay_max_ns "
           "(inverted pacing envelope)";
  }
  return {};
}

namespace {

/// Thread t's k-th operation: ids are dense and thread-major.
TokenId token_id(const ConcurrentRunSpec& spec, std::uint32_t t,
                 std::uint64_t k) {
  return static_cast<TokenId>(t * spec.ops_per_thread + k);
}

/// One completed operation, stamped on the steady clock: seconds for the
/// analyzers' real-time order, nanoseconds for the issue-order key.
TokenRecord stamped_record(TokenId token, std::uint32_t process,
                           std::uint32_t source, std::uint32_t sink, Value value,
                           Clock::time_point in, Clock::time_point out) {
  TokenRecord rec;
  rec.token = token;
  rec.process = process;
  rec.source = source;
  rec.sink = sink;
  rec.value = value;
  rec.t_in = to_seconds(in);
  rec.t_out = to_seconds(out);
  rec.first_seq = to_ns(in);
  rec.last_seq = to_ns(out);
  return rec;
}

/// Per-thread fault tallies a step keeps and the loop sums.
struct Tally {
  std::uint64_t stalls = 0;
  std::uint64_t lost = 0;  ///< Operations dropped after taking their steps.
};

/// The recorded closed loop on real threads: thread t is process t and
/// issues spec.ops_per_thread operations, each one call of the step that
/// `make_step(t)` builds on the thread (so per-thread state stays on its
/// stack). The loop owns the per-thread fault stream and draws the crash
/// point from it first; `step(k, faults, tally)` draws its own
/// per-operation faults after that and returns the completed record, or
/// nothing when a fault lost the operation. After the join, the partial
/// traces are concatenated into result.trace (no sink) or merged into the
/// sink in issue order.
template <typename MakeStep>
ConcurrentRunResult closed_loop(const ConcurrentRunSpec& spec,
                                MakeStep&& make_step, TraceSink* sink) {
  ConcurrentRunResult result;
  result.error = validate(spec);
  if (!result.ok()) return result;
  const bool faulted = spec.fault.active();
  std::vector<RecordLane> partial(spec.threads);
  std::vector<Tally> tallies(spec.threads);
  std::vector<std::uint8_t> crashed(spec.threads, 0);
  SpinBarrier barrier(spec.threads);
  std::vector<std::thread> workers;
  workers.reserve(spec.threads);
  const auto t_start = Clock::now();
  for (std::uint32_t t = 0; t < spec.threads; ++t) {
    workers.emplace_back([&, t] {
      auto step = make_step(t);
      // Fault decisions come from a per-thread stream (offset keeps it
      // disjoint from any future engine-level streams of the same run),
      // so the injected mix is deterministic per (plan, seed, thread).
      fault::FaultStream faults(spec.fault, spec.seed, 100 + t);
      std::uint64_t crash_at = spec.ops_per_thread;  // "never"
      if (faulted && spec.fault.p_process_crash > 0.0 &&
          faults.flip(spec.fault.p_process_crash)) {
        crash_at = faults.pick(0, spec.ops_per_thread - 1);
      }
      RecordLane& mine = partial[t];
      Tally tally;
      barrier.arrive_and_wait();
      for (std::uint64_t k = 0; k < spec.ops_per_thread; ++k) {
        if (k >= crash_at) {
          crashed[t] = 1;  // crash point reached: silent for the rest
          break;
        }
        if (std::optional<TokenRecord> rec = step(k, faults, tally)) {
          mine.push_back(*rec);
        }
      }
      tallies[t] = tally;
    });
  }
  for (std::thread& w : workers) w.join();
  const auto t_end = Clock::now();
  std::uint64_t completed_ops = 0;
  for (const RecordLane& p : partial) completed_ops += p.size();
  if (sink == nullptr) {
    for (const RecordLane& p : partial) {
      for (const Trace& block : p.blocks()) {
        result.trace.insert(result.trace.end(), block.begin(), block.end());
      }
    }
  } else {
    // Buffering per thread during the run is deliberate: a shared locked
    // sink would perturb the timing being measured.
    merge_issue_ordered(partial, *sink);
  }
  for (std::uint32_t t = 0; t < spec.threads; ++t) {
    result.stalls += tallies[t].stalls;
    result.tokens_abandoned += tallies[t].lost;
    result.threads_crashed += crashed[t];
  }
  // Completed operations only: crashes and lost operations don't count.
  result.total_ops =
      faulted ? completed_ops
              : static_cast<std::uint64_t>(spec.threads) * spec.ops_per_thread;
  result.elapsed_sec = std::chrono::duration<double>(t_end - t_start).count();
  result.ops_per_sec =
      result.elapsed_sec > 0 ? result.total_ops / result.elapsed_sec : 0.0;
  return result;
}

}  // namespace

ConcurrentRunResult run_recorded(ConcurrentNetwork& net,
                                 const ConcurrentRunSpec& spec,
                                 TraceSink* sink) {
  const std::uint32_t fan_in = net.network().fan_in();
  const std::uint32_t fan_out = net.network().fan_out();
  const std::uint32_t hops = net.network().depth() + 1;
  const bool faulted = spec.fault.active();
  // Each thread appends to its own schedule; they join in thread order.
  std::vector<TimedExecution> partial(spec.threads,
                                      TimedExecution{.net = &net.network()});
  const auto make_step = [&](std::uint32_t t) {
    return [&, t, source = t % fan_in,
            rng = Xoshiro256(spec.seed * 0x9e3779b9ULL + t),
            hop_times = std::vector<double>(hops)](
               std::uint64_t k, fault::FaultStream& faults,
               Tally& tally) mutable -> std::optional<TokenRecord> {
      // Per-operation fault draws, in a fixed order (stall, abandon).
      std::uint32_t stall_hop = hops;    // "no stall"
      std::uint32_t abandon_hop = hops;  // "no abandon"
      if (faulted) {
        if (faults.flip(spec.fault.p_thread_stall)) {
          stall_hop = static_cast<std::uint32_t>(faults.pick(0, hops - 1));
        }
        if (faults.flip(spec.fault.p_thread_abandon)) {
          abandon_hop = static_cast<std::uint32_t>(faults.pick(0, hops - 1));
        }
      }
      const auto in = Clock::now();
      const Value v = net.increment_interruptible(source, [&](std::uint32_t hop) {
        if (hop == stall_hop) {
          ++tally.stalls;
          spin_for_ns(spec.fault.stall_ns);  // frozen thread, token held
        }
        if (hop == abandon_hop) return false;  // crash mid-traversal
        if (spec.hop_delay_max_ns > 0) {
          spin_for_ns(rng.range(spec.hop_delay_min_ns, spec.hop_delay_max_ns));
        }
        if (spec.record_schedule && hop < hops) {
          hop_times[hop] = to_seconds(Clock::now());
        }
        return true;
      });
      if (v == ConcurrentNetwork::kAbandonedToken) {
        ++tally.lost;
        spin_for_ns(spec.local_delay_ns);
        return std::nullopt;  // the token is gone; the thread moves on
      }
      const auto out = Clock::now();
      if (spec.record_schedule) {
        const std::span<double> row = partial[t].add(
            {.token = token_id(spec, t, k), .process = t, .source = source});
        std::ranges::copy(hop_times, row.begin());
      }
      spin_for_ns(spec.local_delay_ns);
      return stamped_record(token_id(spec, t, k), t, source,
                            static_cast<std::uint32_t>(v % fan_out), v, in,
                            out);
    };
  };
  ConcurrentRunResult result = closed_loop(spec, make_step, sink);
  if (result.ok() && spec.record_schedule) {
    TimedExecution& joined = result.schedule;
    joined.net = &net.network();
    for (const TimedExecution& part : partial) {
      joined.plans.insert(joined.plans.end(), part.plans.begin(),
                          part.plans.end());
      joined.times.insert(joined.times.end(), part.times.begin(),
                          part.times.end());
    }
  }
  return result;
}

ConcurrentRunResult run_recorded_counter(
    const std::function<std::uint64_t(std::uint32_t)>& next,
    const ConcurrentRunSpec& spec, TraceSink* sink) {
  const bool faulted = spec.fault.active();
  const auto make_step = [&](std::uint32_t t) {
    return [&, t](std::uint64_t k, fault::FaultStream& faults,
                  Tally& tally) -> std::optional<TokenRecord> {
      bool drop = false;
      if (faulted) {
        if (faults.flip(spec.fault.p_thread_stall)) {
          ++tally.stalls;
          spin_for_ns(spec.fault.stall_ns);
        }
        // Abandon for a flat counter = the value is fetched but its
        // holder dies before using it: handed out, never observed.
        drop = faults.flip(spec.fault.p_thread_abandon);
      }
      const auto in = Clock::now();
      const std::uint64_t v = next(t);
      const auto out = Clock::now();
      if (drop) {
        ++tally.lost;
        return std::nullopt;
      }
      return stamped_record(token_id(spec, t, k), t, t, 0, v, in, out);
    };
  };
  return closed_loop(spec, make_step, sink);
}

double run_throughput(std::uint32_t threads, std::uint64_t ops_per_thread,
                      const std::function<std::uint64_t(std::uint32_t)>& next) {
  SpinBarrier barrier(threads);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  std::atomic<std::uint64_t> guard{0};  // keeps values observably used
  const auto t_start = Clock::now();
  for (std::uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      barrier.arrive_and_wait();
      std::uint64_t acc = 0;
      for (std::uint64_t k = 0; k < ops_per_thread; ++k) acc ^= next(t);
      guard.fetch_xor(acc, std::memory_order_relaxed);
    });
  }
  for (std::thread& w : workers) w.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - t_start).count();
  const double total = static_cast<double>(threads) * ops_per_thread;
  return elapsed > 0 ? total / elapsed : 0.0;
}

double run_batch_throughput(
    std::uint32_t threads, std::uint64_t tokens_per_thread,
    std::uint32_t batch,
    const std::function<void(std::uint32_t, std::uint64_t*, std::uint32_t)>&
        next_batch) {
  if (batch == 0) batch = 1;
  SpinBarrier barrier(threads);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  std::atomic<std::uint64_t> guard{0};  // keeps values observably used
  const auto t_start = Clock::now();
  for (std::uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<std::uint64_t> values(batch);
      barrier.arrive_and_wait();
      std::uint64_t acc = 0;
      std::uint64_t left = tokens_per_thread;
      while (left > 0) {
        const auto k = static_cast<std::uint32_t>(
            left < batch ? left : batch);
        next_batch(t, values.data(), k);
        for (std::uint32_t i = 0; i < k; ++i) acc ^= values[i];
        left -= k;
      }
      guard.fetch_xor(acc, std::memory_order_relaxed);
    });
  }
  for (std::thread& w : workers) w.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - t_start).count();
  const double total = static_cast<double>(threads) * tokens_per_thread;
  return elapsed > 0 ? total / elapsed : 0.0;
}

}  // namespace cn
