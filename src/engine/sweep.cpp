#include "engine/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "engine/backend.hpp"
#include "util/cacheline.hpp"
#include "util/rng.hpp"

namespace cn::engine {

namespace {

/// Compact per-trial record: what the reduction needs of a RunResult.
struct TrialSummary {
  bool ok = false;
  bool non_lin = false;
  bool non_sc = false;
  double f_nl = 0.0;
  double f_nsc = 0.0;
  std::uint64_t tokens = 0;
  std::map<std::string, double> metrics;
  std::string error;
  ErrorKind kind = ErrorKind::kNone;  ///< Taxonomy of `error`.
  std::uint32_t attempts = 0;         ///< Retries consumed (0 = first try).
};

/// One summary per trial, padded to cache-line multiples so adjacent
/// trials written by different workers never share a line (the same
/// false-sharing discipline as PaddedAtomic in concurrent_network.hpp).
struct alignas(kCacheLineSize) TrialSlot {
  TrialSummary summary;
};

TrialSummary summarize(const RunResult& r) {
  TrialSummary s;
  s.ok = r.ok();
  s.kind = r.error_kind;
  if (!s.ok) {
    s.error = r.error;
    return s;
  }
  s.non_lin = !r.report.linearizable();
  s.non_sc = !r.report.sequentially_consistent();
  s.f_nl = r.report.f_nl;
  s.f_nsc = r.report.f_nsc;
  // report.total, not trace.size(): streaming runs analyze every record
  // without materializing the trace (collect runs have the two equal).
  s.tokens = r.report.total;
  s.metrics = r.metrics;
  return s;
}

/// Runs one trial under a wall-clock watchdog. The trial executes on a
/// fresh thread (its own arena: the worker's arena must survive an
/// abandonment); on timeout the thread is detached and a "timeout"
/// result returned. The detached thread owns everything it can touch —
/// its RunSpec copy and a shared_ptr to the network — via the shared
/// state, so an eventually-finishing straggler writes into memory only
/// it references.
RunResult run_with_watchdog(const RunSpec& rs, std::uint64_t timeout_ms,
                            std::shared_ptr<const Network> net_guard) {
  struct Shared {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    RunResult result;
    RunSpec spec;
    std::shared_ptr<const Network> net_guard;
  };
  auto sh = std::make_shared<Shared>();
  sh->spec = rs;
  sh->net_guard = std::move(net_guard);
  std::thread([sh] {
    RunContext ctx;
    RunResult r = run_backend(sh->spec, ctx);
    std::lock_guard<std::mutex> lock(sh->mu);
    sh->result = std::move(r);
    sh->done = true;
    sh->cv.notify_all();
  }).detach();
  std::unique_lock<std::mutex> lock(sh->mu);
  if (sh->cv.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                      [&] { return sh->done; })) {
    return std::move(sh->result);
  }
  RunResult timed_out;
  timed_out.backend = rs.backend;
  timed_out.error =
      "watchdog: trial exceeded " + std::to_string(timeout_ms) + " ms";
  timed_out.error_kind = ErrorKind::kTimeout;
  return timed_out;
}

}  // namespace

std::uint64_t trial_seed(std::uint64_t base_seed, std::uint64_t trial) {
  SplitMix64 outer(base_seed);
  SplitMix64 inner(outer.next() ^ (0x9e3779b97f4a7c15ULL * (trial + 1)));
  return inner.next();
}

std::uint64_t retry_seed(std::uint64_t base_seed, std::uint64_t trial,
                         std::uint32_t attempt) {
  const std::uint64_t s = trial_seed(base_seed, trial);
  if (attempt == 0) return s;
  SplitMix64 mix(s ^ (0xd1342543de82ef95ULL * attempt));
  return mix.next();
}

SweepStats sweep_stats(const SweepSpec& spec) {
  SweepStats st;
  st.trials = spec.trials;
  if (spec.trials == 0) return st;

  const std::uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::uint32_t workers = std::min<std::uint64_t>(
      spec.threads == 0 ? hw : spec.threads, spec.trials);

  // Resolve the topology once for the whole sweep: every trial shares one
  // Network (and hence one set of compiled routing tables per worker
  // arena) instead of rebuilding it per trial. On resolution failure the
  // base spec is left untouched so each trial reports the same error the
  // backend would have produced — error accounting is unchanged.
  RunSpec base = spec.base;
  std::shared_ptr<const Network> sweep_net;
  if (base.net == nullptr) {
    std::string resolve_error;
    const Network* net = resolve_network(base, sweep_net, resolve_error);
    if (net != nullptr && sweep_net != nullptr) base.net = net;
  } else if (spec.timeout_ms > 0) {
    // Watchdog runs may be abandoned and outlive the caller: a trial
    // thread must never dereference a caller-owned network, so take a
    // sweep-owned deep copy that abandoned threads keep alive.
    sweep_net = std::make_shared<Network>(*base.net);
    base.net = sweep_net.get();
  }

  std::vector<TrialSlot> summaries(spec.trials);

  const auto t_start = std::chrono::steady_clock::now();
  std::atomic<std::uint64_t> next_trial{0};
  auto work = [&] {
    RunContext ctx;  // per-worker arena: compiled tables + trial buffers
    for (;;) {
      const std::uint64_t t =
          next_trial.fetch_add(1, std::memory_order_relaxed);
      if (t >= spec.trials) return;
      RunSpec rs = base;
      RunResult r;
      std::uint32_t attempt = 0;
      for (;;) {
        rs.seed = retry_seed(spec.base.seed, t, attempt);
        r = spec.timeout_ms > 0 ? run_with_watchdog(rs, spec.timeout_ms,
                                                    sweep_net)
                                : run_backend(rs, ctx);
        // Retry transient failures with a re-derived seed; an invalid
        // spec fails identically forever, so don't waste the attempts.
        if (r.ok() || r.error_kind == ErrorKind::kSpecInvalid ||
            attempt >= spec.max_retries) {
          break;
        }
        ++attempt;
      }
      summaries[t].summary = summarize(r);
      summaries[t].summary.attempts = attempt;
    }
  };
  if (workers <= 1) {
    work();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::uint32_t w = 0; w < workers; ++w) pool.emplace_back(work);
    for (std::thread& th : pool) th.join();
  }
  st.wall_sec = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t_start)
                   .count();

  // Serial reduction in trial order: every aggregate (including the
  // floating-point sums) is independent of the worker count.
  for (std::uint64_t t = 0; t < spec.trials; ++t) {
    const TrialSummary& s = summaries[t].summary;
    if (s.attempts > 0) {
      ++st.retried_trials;
      st.total_retries += s.attempts;
    }
    if (!s.ok) {
      ++st.errors;
      if (st.first_error.empty()) st.first_error = s.error;
      SweepStats::ErrorEntry& entry = st.error_table[error_kind_name(s.kind)];
      if (entry.count == 0) {
        entry.first_trial = t;
        entry.first_message = s.error;
      }
      ++entry.count;
      continue;
    }
    ++st.completed;
    st.lin_violations += s.non_lin;
    st.sc_violations += s.non_sc;
    st.worst_f_nl = std::max(st.worst_f_nl, s.f_nl);
    st.worst_f_nsc = std::max(st.worst_f_nsc, s.f_nsc);
    st.total_tokens += s.tokens;
    for (const auto& [key, value] : s.metrics) st.metric_sums[key] += value;
  }
  return st;
}

}  // namespace cn::engine
