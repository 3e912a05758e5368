// The counting-service workloads, driven only through CountingService's
// public calls. A run is a sequence of short episodes; each episode
// constructs and starts a fresh service (timed as set-up), offers load,
// and stops it (timed as the drain).
//
//   service_closed_batch   unrecorded, 2 shards of B(8); 4 closed-loop
//                          clients, each submit_batch(16) then wait_done on
//                          every slot, round trip timed by the client.
//   service_open_recorded  recorded, 2 shards of B(8); one generator thread
//                          offers Poisson single requests through
//                          try_submit at a fixed 200k req/s from a schedule
//                          precomputed from the seed. Latency runs from the
//                          scheduled arrival to the slot store. Records go
//                          to a StreamingConsistency + DegradationAccumulator
//                          tee.
#include <atomic>
#include <memory>
#include <thread>

#include "common.hpp"
#include "concurrent/concurrent_network.hpp"
#include "core/constructions.hpp"
#include "engine/sweep.hpp"
#include "fault/fault.hpp"
#include "service/client.hpp"
#include "service/service.hpp"
#include "spans.hpp"
#include "trace/streaming.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace cn;

constexpr std::uint32_t kShards = 2;
constexpr std::uint32_t kClients = 4;
constexpr std::uint32_t kClientBatch = 16;
constexpr double kOpenRate = 200'000.0;  ///< Offered req/s, absolute.
/// Deep enough that only a stall of over half a second at the offered
/// rate could fill a queue: the open workload must not refuse requests.
constexpr std::uint32_t kOpenQueueCapacity = 1u << 16;
/// Episode lengths: the closed loop's are short, so that the host-speed
/// samples between them follow the host closely; the open loop's are long
/// enough for its record lanes to grow as they do in a real run.
constexpr double kClosedEpisodeSeconds = 0.25;
constexpr double kOpenEpisodeSeconds = 1.0;
/// Host-speed kernel repetitions sampled between episodes.
constexpr unsigned kReferenceReps = 60;
/// Open loop: the schedule starts this long after the set-up begins, so a
/// slow set-up does not make the first arrivals late.
constexpr std::uint64_t kLeadNs = 20'000'000;
/// Latency windows, and the fewest samples a window needs for a p99.
constexpr std::uint64_t kWindowNs = 50'000'000;
constexpr std::uint64_t kMinWindowSamples = 1000;

using Slot = std::atomic<std::uint64_t>;

/// Count, sum and sum of squares of returned values: together they pin a
/// set of n distinct values to exactly {0, ..., n-1}.
struct ValueTally {
  std::uint64_t n = 0;
  unsigned __int128 sum = 0;
  unsigned __int128 sumsq = 0;

  void add(std::uint64_t v) {
    ++n;
    sum += v;
    sumsq += static_cast<unsigned __int128>(v) * v;
  }
  void merge(const ValueTally& o) {
    n += o.n;
    sum += o.sum;
    sumsq += o.sumsq;
  }
  bool is_prefix() const {
    const unsigned __int128 m = n;
    if (m == 0) return true;
    return sum == m * (m - 1) / 2 && sumsq == (m - 1) * m * (2 * m - 1) / 6;
  }
};

/// Everything one phase (untraced or traced) of a service workload
/// accumulates over its episodes.
struct Phase {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t completed = 0;
  std::uint64_t submitted = 0;  ///< Accepted requests.
  // Times below are at nominal host speed: each episode's are divided by
  // the mean of the host slowdowns sampled just before and after it.
  HostSpeed speed;
  double last_slowdown = 0.0;  ///< The latest sample; 0 before the first.
  std::vector<double> episode_rate;  ///< Completed/s: load plus stop().
  std::vector<double> setup_ns;
  std::vector<double> stop_ns;
  /// Latency: closed, client round trips; open, scheduled arrival to slot
  /// store. Pooled, and per window (see Windows).
  Quantiles latency_ns;
  WindowFigures windows;
  Quantiles late_ns;  ///< Open generator lateness.
  std::uint64_t late_windows = 0;  ///< Open windows dropped as off schedule.
  // Worker-side figures from ServiceStats.
  service::LatencyHistogram svc_latency;
  std::uint64_t batches = 0;
  std::uint64_t ingress_calls = 0;
  std::uint64_t ingress_cells = 0;
  std::uint64_t refused = 0;
  std::vector<std::uint64_t> shard_completed =
      std::vector<std::uint64_t>(kShards, 0);
  // Traced only.
  std::vector<std::unique_ptr<SpanLog>> logs;
  std::vector<double> merge_ms;
  std::vector<double> check_ms;
  std::vector<double> record_ns_per_token;

  double slowdown_before() {
    if (last_slowdown <= 0.0) last_slowdown = speed.sample(kReferenceReps);
    return last_slowdown;
  }
  double slowdown_after() {
    last_slowdown = speed.sample(kReferenceReps);
    return last_slowdown;
  }
};

service::ServiceConfig base_config(const Network& net, std::uint64_t seed) {
  service::ServiceConfig cfg;
  cfg.shards = kShards;
  cfg.net = &net;
  cfg.seed = seed;
  return cfg;
}

/// Folds the stopped service's accounting into the phase and checks the
/// Lemma 3.1 residue audit.
void absorb_stats(const service::CountingService& svc, std::uint64_t episode,
                  Phase& ph, Outcome& out) {
  const service::ServiceStats& st = svc.stats();
  const service::ResidueAudit audit = svc.audit();
  out.check(audit.ok(), "episode " + std::to_string(episode) +
                            ": residue audit failed (exact=" +
                            std::to_string(audit.exact) + ", gap_free=" +
                            std::to_string(audit.gap_free) + ")");
  ph.failed += st.rejected + st.shed + st.dropped + st.timed_out +
               st.abandoned + st.crash_lost;
  ph.completed += st.completed;
  ph.submitted += st.submitted;
  ph.svc_latency.merge(st.latency);
  ph.batches += st.batches;
  ph.ingress_calls += st.ingress_batches;
  ph.ingress_cells += st.ingress_cells;
  ph.refused += st.rejected + st.shed;
  for (std::size_t s = 0; s < st.shard_completed.size() && s < kShards; ++s) {
    ph.shard_completed[s] += st.shard_completed[s];
  }
}

// --- service_closed_batch ----------------------------------------------

struct ClientResult {
  explicit ClientResult(std::uint64_t origin_ns, double seconds)
      : windows(origin_ns, seconds, kWindowNs) {}
  ValueTally values;
  std::uint64_t calls = 0;
  std::uint64_t refused = 0;  ///< Elements not completed with a value.
  Quantiles round_trip_ns;
  Windows windows;
};

void closed_client(service::CountingService& svc, std::uint32_t id,
                   const std::atomic<bool>& go, const std::atomic<bool>& halt,
                   bool corrupt, SpanLog* log, ClientResult& res) {
  const service::SubmitPolicy policy;
  std::unique_ptr<Slot[]> slots(new Slot[kClientBatch]);
  while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
  while (!halt.load(std::memory_order_relaxed)) {
    for (std::uint32_t i = 0; i < kClientBatch; ++i) {
      slots[i].store(0, std::memory_order_relaxed);
    }
    const std::uint64_t op = (std::uint64_t{id} << 40) | res.calls;
    const std::uint64_t t0 = now_ns();
    if (log != nullptr) log->begin(Layer::kRoundTrip, op, t0);
    const service::CountingService::BatchResult br =
        svc.submit_batch(id, t0, slots.get(), kClientBatch);
    ++res.calls;
    const std::uint64_t t1 = log != nullptr ? now_ns() : 0;
    if (br.accepted + br.rejected == 0) {  // Shed or admission closed.
      res.refused += kClientBatch;
      if (log != nullptr) log->end(t1);
      continue;
    }
    for (std::uint32_t i = 0; i < kClientBatch; ++i) {
      service::wait_done(slots[i], 0, policy, &svc.completion_event());
    }
    const std::uint64_t t2 = now_ns();
    if (log != nullptr) {
      log->record(Layer::kSubmitBatch, op, t0, t1);
      log->record(Layer::kWait, op, t1, t2);
      log->end(t2);
    }
    res.round_trip_ns.add(t2 - t0);
    res.windows.add(t0, t2 - t0);
    for (std::uint32_t i = 0; i < kClientBatch; ++i) {
      const std::uint64_t v = slots[i].load(std::memory_order_acquire);
      if (v == service::kDroppedSignal || v == service::kRejectedSignal) {
        ++res.refused;
      } else {
        res.values.add(v - 1 + (corrupt && res.values.n == 0 ? 1 : 0));
      }
    }
  }
}

void closed_episode(const Network& net, const Options& opt,
                    std::uint64_t episode, double seconds, bool traced,
                    Phase& ph, Outcome& out) {
  const double slow_before = ph.slowdown_before();
  const std::uint64_t t_setup = now_ns();
  auto svc = std::make_unique<service::CountingService>(
      base_config(net, engine::trial_seed(opt.seed, episode)));
  svc->start();
  const auto setup_ns = static_cast<double>(now_ns() - t_setup);

  std::atomic<bool> go{false};
  std::atomic<bool> halt{false};
  const std::uint64_t origin = now_ns();
  std::vector<ClientResult> results(kClients, ClientResult(origin, seconds));
  std::vector<std::thread> clients;
  for (std::uint32_t c = 0; c < kClients; ++c) {
    SpanLog* log = traced ? ph.logs[c].get() : nullptr;
    const bool corrupt = opt.corrupt && episode == 0 && c == 0;
    clients.emplace_back([&, c, log, corrupt] {
      closed_client(*svc, c, go, halt, corrupt, log, results[c]);
    });
  }
  const std::uint64_t t0 = now_ns();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  halt.store(true, std::memory_order_relaxed);
  for (std::thread& t : clients) t.join();
  const std::uint64_t t_stop = now_ns();
  svc->stop();
  const std::uint64_t t_end = now_ns();
  const double slow = (slow_before + ph.slowdown_after()) / 2;
  ph.setup_ns.push_back(setup_ns / slow);
  ph.stop_ns.push_back(static_cast<double>(t_end - t_stop) / slow);
  ph.episode_rate.push_back(static_cast<double>(svc->stats().completed) *
                            1e9 / (static_cast<double>(t_end - t0) / slow));

  ValueTally values;
  std::uint64_t refused = 0;
  Windows windows(origin, seconds, kWindowNs);
  for (const ClientResult& r : results) {
    values.merge(r.values);
    refused += r.refused;
    ph.attempted += r.calls * kClientBatch;
    ph.latency_ns.merge_scaled(r.round_trip_ns, slow);
    windows.merge(r.windows);
  }
  ph.windows.add_all(windows, slow, kMinWindowSamples);
  const std::uint64_t failed_before = ph.failed;
  absorb_stats(*svc, episode, ph, out);
  const std::string ep = "closed episode " + std::to_string(episode);
  out.check(values.n == svc->stats().completed && values.is_prefix(),
            ep + ": client values are not exactly 0..completed-1");
  out.check(refused == ph.failed - failed_before,
            ep + ": client-observed refusals disagree with the service's");
}

/// Standalone ConcurrentNetwork::increment_batch cost at batch size k,
/// cycling input wires like a shard worker does.
double increment_batch_ns_per_token(const Network& net, std::uint32_t k,
                                    Outcome& out) {
  ConcurrentNetwork cnet(net);
  std::vector<Value> values(k);
  std::uint64_t calls = 0;
  const std::uint64_t t0 = now_ns();
  const std::uint64_t deadline = t0 + 200'000'000;
  do {
    for (int i = 0; i < 256; ++i, ++calls) {
      cnet.increment_batch(static_cast<std::uint32_t>(calls % net.fan_in()), k,
                           values.data());
    }
  } while (now_ns() < deadline);
  const double dt = static_cast<double>(now_ns() - t0);
  out.check(cnet.total() == calls * k,
            "standalone increment_batch lost or duplicated tokens");
  return dt / static_cast<double>(calls * k);
}

// --- service_open_recorded ---------------------------------------------

/// The downstream sink of the recorded service: the analysis tee, then a
/// tap of each record's scheduled-arrival-to-store latency (t_in is the
/// scheduled arrival handed to try_submit, t_out the worker's completion
/// stamp taken just before the slot store).
class OpenSink final : public TraceSink {
 public:
  OpenSink(TraceSink& analysis, Quantiles& latency_ns, Windows& windows)
      : analysis_(analysis), latency_ns_(latency_ns), windows_(windows) {}

  void on_record(const TokenRecord& r) override {
    analysis_.on_record(r);
    tap(r);
  }
  void on_records(std::span<const TokenRecord> rs) override {
    analysis_.on_records(rs);
    for (const TokenRecord& r : rs) tap(r);
  }
  void finish() override { analysis_.finish(); }

 private:
  void tap(const TokenRecord& r) {
    const auto ns = static_cast<std::uint64_t>(std::max(0.0, r.t_out - r.t_in));
    latency_ns_.add(ns);
    windows_.add(static_cast<std::uint64_t>(r.t_in), ns);
  }

  TraceSink& analysis_;
  Quantiles& latency_ns_;
  Windows& windows_;
};

void open_episode(const Network& net, const Options& opt,
                  std::uint64_t episode, double seconds, bool traced,
                  Phase& ph, Outcome& out) {
  // The arrival schedule is a pure function of (seed, episode).
  const auto n = static_cast<std::size_t>(kOpenRate * seconds);
  const double gap_ns = 1e9 / kOpenRate;
  std::vector<std::uint64_t> offset(n);
  {
    Xoshiro256 rng(engine::trial_seed(opt.seed, episode));
    double t = 0.0;
    for (std::uint64_t& o : offset) {
      t += -std::log(1.0 - rng.unit()) * gap_ns;
      o = static_cast<std::uint64_t>(t);
    }
  }
  std::unique_ptr<Slot[]> slots(new Slot[n]());
  SpanLog* log = traced ? ph.logs[0].get() : nullptr;

  StreamingConsistency checker;
  fault::DegradationAccumulator degradation;
  TeeSink tee(checker, degradation);
  std::unique_ptr<TimedSink> timed;
  if (log != nullptr) timed = std::make_unique<TimedSink>(tee, *log, episode);
  Quantiles latency_ns;
  Quantiles late_ns;
  // The schedule (and its first window) starts a fixed lead after the
  // set-up begins.
  const double slow_before = ph.slowdown_before();
  const std::uint64_t t_setup = now_ns();
  const std::uint64_t t0 = t_setup + kLeadNs;
  Windows windows(t0, seconds, kWindowNs);
  Windows late_windows(t0, seconds, kWindowNs);
  OpenSink sink(timed != nullptr ? static_cast<TraceSink&>(*timed) : tee,
                latency_ns, windows);

  service::ServiceConfig cfg =
      base_config(net, engine::trial_seed(opt.seed, episode));
  cfg.record = true;
  cfg.queue_capacity = kOpenQueueCapacity;
  auto svc = std::make_unique<service::CountingService>(cfg, &sink);
  svc->start();
  const auto setup_ns = static_cast<double>(now_ns() - t_setup);

  pin_current_thread(Role::kGenerator);
  std::uint64_t refused = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t due = t0 + offset[k];
    std::uint64_t now;
    while ((now = now_ns()) < due) std::this_thread::yield();
    late_ns.add(now - due);
    late_windows.add(due, now - due);
    // Latency is anchored at the scheduled arrival, so a stalled
    // generator's backlog counts against the service.
    const bool ok = svc->try_submit(0, due, &slots[k]);
    if (log != nullptr) {
      const std::uint64_t after = now_ns();
      const std::uint64_t op = (episode << 32) | k;
      log->record(Layer::kLate, op, due, now);
      log->record(Layer::kTrySubmit, op, now, after);
    }
    refused += ok ? 0 : 1;
  }
  pin_current_thread(Role::kProgram);
  const std::uint64_t check_before =
      log != nullptr ? log->total_ns(Layer::kCheck) : 0;
  const std::uint64_t t_stop = now_ns();
  if (log != nullptr) log->begin(Layer::kStop, episode, t_stop);
  svc->stop();
  const std::uint64_t t_end = now_ns();
  if (log != nullptr) log->end(t_end);
  const double slow = (slow_before + ph.slowdown_after()) / 2;
  ph.setup_ns.push_back(setup_ns / slow);
  ph.stop_ns.push_back(static_cast<double>(t_end - t_stop) / slow);
  // The offered load runs on real time, so only the drain is scaled.
  ph.episode_rate.push_back(
      static_cast<double>(svc->stats().completed) * 1e9 /
      (static_cast<double>(t_stop - t0) + ph.stop_ns.back()));
  ph.latency_ns.merge_scaled(latency_ns, slow);
  ph.late_ns.merge_scaled(late_ns, slow);
  // A window in which the generator ran later than the mean gap at p99
  // did not offer the scheduled load: its latency is not an open-loop
  // figure, and it is left out.
  for (std::size_t i = 0; i < windows.size(); ++i) {
    if (late_windows[i].count() > 0 && late_windows[i].at(0.99) > gap_ns) {
      ++ph.late_windows;
    } else {
      ph.windows.add(windows, i, slow, kMinWindowSamples);
    }
  }
  ph.attempted += n;
  tee.finish();

  const service::ServiceStats& st = svc->stats();
  if (log != nullptr) {
    const double check =
        static_cast<double>(log->total_ns(Layer::kCheck) - check_before) / slow;
    const double merge = ph.stop_ns.back() - check;
    ph.check_ms.push_back(check / 1e6);
    ph.merge_ms.push_back(merge / 1e6);
    ph.record_ns_per_token.push_back(
        merge / static_cast<double>(std::max<std::uint64_t>(st.completed, 1)));
  }

  const std::uint64_t failed_before = ph.failed;
  absorb_stats(*svc, episode, ph, out);
  const std::string ep = "open episode " + std::to_string(episode);
  out.check(refused == ph.failed - failed_before,
            ep + ": generator refusals disagree with the service's");
  out.check(checker.total() == st.completed,
            ep + ": checker saw " + std::to_string(checker.total()) +
                " records, service completed " +
                std::to_string(st.completed));
  const fault::Degradation deg =
      degradation.result(kShards * net.fan_out());
  out.check(deg.counting_violation == 0.0,
            ep + ": recorded values violate the counting property");
  ValueTally values;
  std::uint64_t unresolved = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t v = slots[k].load(std::memory_order_acquire);
    if (v == 0 || v == service::kDroppedSignal) {
      ++unresolved;
    } else {
      values.add(v - 1 + (opt.corrupt && episode == 0 && k == 0 ? 1 : 0));
    }
  }
  out.check(unresolved == refused + st.dropped,
            ep + ": accepted requests left without a stored value");
  out.check(values.n == st.completed && values.is_prefix(),
            ep + ": slot values are not exactly 0..completed-1");
}

}  // namespace

void run_service_workload(const Options& opt, Outcome& out) {
  const bool open = opt.workload == "service_open_recorded";
  const std::uint64_t epoch = now_ns();
  const Network net = make_bitonic(8);
  auto episode = open ? open_episode : closed_episode;

  // A phase is a whole number of episodes.
  auto run_phase = [&](double seconds, bool traced, std::uint64_t first) {
    Phase ph;
    if (traced) {
      for (std::uint32_t c = 0; c < (open ? 1 : kClients); ++c) {
        ph.logs.push_back(std::make_unique<SpanLog>(c));
      }
    }
    const double len = std::min(
        open ? kOpenEpisodeSeconds : kClosedEpisodeSeconds, seconds);
    const auto count =
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(seconds / len + 0.5));
    for (std::uint64_t e = 0; e < count; ++e) {
      episode(net, opt, first + e, len, traced, ph, out);
    }
    out.attempted += ph.attempted;
    out.failed += ph.failed;
    return ph;
  };

  Phase plain = run_phase(opt.trace ? opt.seconds / 2 : opt.seconds, false, 0);
  const double ops_per_s = quantile(plain.episode_rate, 0.5);
  if (open) {
    // Without one window on schedule there is no open-loop figure.
    out.notes.push_back(
        std::string(plain.windows.p50.empty() ? "INVALID " : "") +
        "generator late_us_p99=" + std::to_string(plain.late_ns.at(0.99) / 1e3) +
        " mean_gap_us=" + std::to_string(1e6 / kOpenRate) +
        " windows_off_schedule=" + std::to_string(plain.late_windows));
  }

  if (!opt.trace) {
    const double p50 = plain.windows.run_p50() / 1e3;
    const double p99 = plain.windows.run_p99() / 1e3;
    out.set("ops_per_s", ops_per_s, "1/s");
    out.set("latency_p50_us", p50, "us");
    out.set("latency_p99_us", p99, "us");
    out.set("setup_s", quantile(plain.setup_ns, 0.50) / 1e9, "s");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    const std::string pre = open ? "open" : "closed";
    if (!open) out.alias("closed_rps", ops_per_s, "1/s");
    out.alias(pre + "_p50_us", p50, "us");
    out.alias(pre + "_p99_us", p99, "us");
    if (open) {
      out.alias("open_drain_s", quantile(plain.stop_ns, 0.50) / 1e9, "s");
    }
    out.alias("failed_frac",
              static_cast<double>(plain.failed) /
                  static_cast<double>(plain.attempted),
              "ratio");
    out.notes.push_back("samples latency=" +
                        std::to_string(plain.latency_ns.count()) +
                        " windows=" + std::to_string(plain.windows.p50.size()) +
                        " episodes=" + std::to_string(plain.setup_ns.size()));
    return;
  }

  // --- traced phase ---------------------------------------------------
  Phase traced = run_phase(opt.seconds / 2, true, plain.setup_ns.size());
  SpanLog totals;
  std::vector<const SpanLog*> logs;
  for (const auto& log : traced.logs) {
    totals.absorb_totals(*log);
    logs.push_back(log.get());
  }
  const auto per = [](double num, std::uint64_t den) {
    return num / static_cast<double>(std::max<std::uint64_t>(den, 1));
  };
  // Span totals are scaled to nominal host speed by the phase's slowdown.
  const auto total = [&](Layer layer) {
    return static_cast<double>(totals.total_ns(layer)) / traced.speed.overall();
  };
  const double svc_p50_ns = static_cast<double>(traced.svc_latency.p50());
  const auto [shard_min, shard_max] = std::minmax_element(
      traced.shard_completed.begin(), traced.shard_completed.end());
  const double mean_batch =
      per(static_cast<double>(traced.completed), traced.batches);
  out.set("service.refused", static_cast<double>(traced.refused), "count");
  out.set("service.batches", static_cast<double>(traced.batches), "count");
  out.set("service.mean_batch", mean_batch, "count");
  out.set("service.shard_skew", per(static_cast<double>(*shard_max), *shard_min),
          "ratio");
  out.set("service.latency_p50_us", svc_p50_ns / 1e3, "us");
  // Every sample, stalls included (host stalls, and on the open workload
  // the worker's record-lane growth copies).
  out.set("service.pooled_p99_us", traced.latency_ns.at(0.99) / 1e3, "us");
  // Tracing overhead on the workload's primary figure: throughput, except
  // on the open loop, whose throughput is the offered rate.
  const double overhead =
      open ? traced.windows.run_p50() / plain.windows.run_p50()
           : ops_per_s / quantile(traced.episode_rate, 0.5);
  out.set("trace.overhead_pct", (overhead - 1.0) * 100, "%");
  // Self times per operation sum to the traced operation time: closed,
  // submit_batch + wait per round trip; open, generator lateness +
  // try_submit + the service's share (queue, worker, traversal, store) per
  // request. Coverage compares that sum with the untraced operation time,
  // both as the median window's mean.
  out.set("trace.coverage_pct",
          quantile(traced.windows.mean, 0.5) /
              quantile(plain.windows.mean, 0.5) * 100,
          "%");
  if (open) {
    out.set("service.try_submit.ns_per_call",
            per(total(Layer::kTrySubmit), traced.attempted),
            "ns");
    // An accepted try_submit pushes exactly one queue cell.
    out.set("service.ingress_cells_per_call",
            per(static_cast<double>(traced.submitted), traced.attempted),
            "count");
    out.set("service.merge.ms", quantile(traced.merge_ms, 0.5), "ms");
    out.set("trace.check.ms", quantile(traced.check_ms, 0.5), "ms");
    out.set("service.record.ns_per_token",
            quantile(traced.record_ns_per_token, 0.5), "ns");
    out.set("gen.late_us_p99", traced.late_ns.at(0.99) / 1e3, "us");
  } else {
    out.set("service.submit_batch.ns_per_call",
            per(total(Layer::kSubmitBatch), totals.count(Layer::kSubmitBatch)),
            "ns");
    out.set("service.ingress_cells_per_call",
            per(static_cast<double>(traced.ingress_cells), traced.ingress_calls),
            "count");
    // Round trip and service latency start at the same arrival stamp; what
    // the client waits beyond the worker's completion is the wake.
    out.set("service.wake_us_p50",
            (traced.latency_ns.at(0.5) - svc_p50_ns) / 1e3, "us");
    const auto k =
        static_cast<std::uint32_t>(std::max(1.0, std::round(mean_batch)));
    out.set("concurrent.increment_batch.ns_per_token",
            increment_batch_ns_per_token(net, k, out), "ns");
  }
  if (!opt.spans_path.empty()) {
    out.check(write_spans(opt.spans_path, logs, epoch),
              "could not write spans to " + opt.spans_path);
  }
}

}  // namespace perfbench
