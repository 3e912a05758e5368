#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <limits>
#include <sstream>

namespace cn::service {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The Lemma 3.1 identity over a ledger: every dispensed ticket either
/// completed or is an accounted hole.
ResidueAudit residue_audit(const ServiceCounts& c, bool gap_free) {
  ResidueAudit a;
  a.tickets = c.submitted + c.rejected;
  a.completed = c.completed;
  a.holes = a.tickets > a.completed ? a.tickets - a.completed : 0;
  a.accounted = c.rejected + c.dropped + c.crash_lost + c.abandoned;
  a.gap_free = gap_free;
  a.exact = a.holes == a.accounted;
  return a;
}

}  // namespace

ServiceCounts& ServiceCounts::operator+=(const ServiceCounts& other) noexcept {
  using C = ServiceCounts;
  for (std::uint64_t C::*sum :
       {&C::submitted, &C::rejected, &C::shed, &C::completed, &C::dropped,
        &C::crash_lost, &C::abandoned, &C::crashes, &C::respawns,
        &C::wedge_detections, &C::batches, &C::ingress_batches,
        &C::ingress_cells, &C::stalls}) {
    this->*sum += other.*sum;
  }
  max_batch_seen = std::max(max_batch_seen, other.max_batch_seen);
  return *this;
}

std::string validate(const ServiceConfig& cfg) {
  if (cfg.net == nullptr) return "service: net must be set";
  if (cfg.shards == 0) return "service: shards must be >= 1";
  if (cfg.max_batch == 0) return "service: max_batch must be >= 1";
  if (cfg.queue_capacity == 0) return "service: queue_capacity must be >= 1";
  if (cfg.net->fan_in() == 0) return "service: net has no input wires";
  if (cfg.shed_high_watermark > 0.0) {
    if (cfg.shed_high_watermark > 1.0) {
      return "service: shed_high_watermark must be in (0, 1]";
    }
    if (cfg.shed_low_watermark < 0.0 ||
        cfg.shed_low_watermark > cfg.shed_high_watermark) {
      return "service: shed_low_watermark must be in [0, high]";
    }
  }
  if (cfg.elastic.enabled) {
    const ElasticConfig& e = cfg.elastic;
    if (e.max_level > 0) {
      const SplitPlan plan(*cfg.net);
      if (!plan.applicable()) {
        return "service: topology is not uniformly splittable: " +
               plan.reason();
      }
      if (e.max_level > plan.max_level()) {
        return "service: elastic max_level exceeds the topology's split "
               "number " +
               std::to_string(plan.max_level());
      }
      const std::string err = verify_extraction(plan, e.max_level);
      if (!err.empty()) {
        return "service: extraction is not operational: " + err;
      }
    }
    // Shard-targeted chaos triggers count per-shard processed requests;
    // those counters (and the shards themselves) do not survive epoch
    // boundaries, so the triggers would be meaningless mid-run.
    for (const fault::ChaosEvent& ev : cfg.chaos.events) {
      if (ev.kind != fault::ChaosKind::kArrivalBurst) {
        return "service: shard-targeted chaos is not supported in elastic "
               "mode";
      }
    }
    if (e.controller) {
      if (e.split_queue_frac <= 0.0 || e.split_queue_frac > 1.0 ||
          e.merge_queue_frac < 0.0 ||
          e.merge_queue_frac >= e.split_queue_frac) {
        return "service: controller watermarks must satisfy 0 <= merge < "
               "split <= 1";
      }
      if (e.breach_polls == 0) {
        return "service: controller breach_polls must be >= 1";
      }
    }
  } else {
    for (const fault::ChaosEvent& ev : cfg.chaos.events) {
      if (ev.kind != fault::ChaosKind::kArrivalBurst &&
          ev.shard >= cfg.shards) {
        return "service: chaos event targets a shard out of range";
      }
    }
  }
  return {};
}

std::string deterministic_fingerprint(const ServiceStats& stats) {
  // ONLY fields whose values are pure functions of (submission schedule,
  // seed, chaos plan). Latency, batch formation, stall counts, wedge
  // detections, and timed_out are wall-clock artifacts and excluded.
  std::ostringstream os;
  os << "submitted=" << stats.submitted << ";rejected=" << stats.rejected
     << ";shed=" << stats.shed << ";completed=" << stats.completed
     << ";dropped=" << stats.dropped << ";crash_lost=" << stats.crash_lost
     << ";abandoned=" << stats.abandoned << ";crashes=" << stats.crashes
     << ";respawns=" << stats.respawns << ";shard_completed=[";
  for (std::size_t s = 0; s < stats.shard_completed.size(); ++s) {
    if (s > 0) os << ",";
    os << stats.shard_completed[s];
  }
  os << "]";
  return os.str();
}

CountingService::CountingService(const ServiceConfig& cfg, TraceSink* sink)
    : cfg_(cfg), sink_(sink) {
  if (cfg_.record && sink_ != nullptr) {
    epoch_sc_ = std::make_unique<StreamingConsistency>();
    tee_ = std::make_unique<TeeSink>(*epoch_sc_, *sink_);
  } else {
    cfg_.record = false;  // Recording without a sink is a no-op.
  }
  if (cfg_.elastic.enabled && cfg_.net != nullptr) {
    plan_ = std::make_unique<SplitPlan>(*cfg_.net);
  }
}

CountingService::~CountingService() { stop(); }

void CountingService::install_epoch(std::uint32_t level) {
  auto ep = std::make_shared<TopologyEpoch>();
  ep->index = epoch_stats_.size();  // One entry per retired epoch.
  ep->level = level;
  // Every shard is (network, feed order, sink labels); the mode decides
  // only what they are. Shard s serves residue class s (Lemma 3.1).
  // An elastic shard runs SplitPlan part s in its certified feed_order,
  // local sink u exiting full sink embed_sink(u, level, s, w). A classic
  // shard is the degenerate single-epoch part: the full network, the
  // identity feed rotated by s, and the flattened record sink s * w + u.
  const std::uint32_t w = cfg_.net->fan_out();
  if (cfg_.elastic.enabled) {
    for (Subnetwork& part : plan_->extract(level)) {
      const auto s = static_cast<std::uint32_t>(ep->nets.size());
      ep->compiled.push_back(std::make_unique<CompiledNetwork>(*part.net));
      ep->nets.push_back(std::make_unique<BatchTraversal>(*ep->compiled[s]));
      ep->feeds.push_back(std::move(part.feed_order));
      auto& labels = ep->sink_labels.emplace_back(part.net->fan_out());
      for (std::uint32_t u = 0; u < labels.size(); ++u) {
        labels[u] = residue::embed_sink(u, level, s, w);
      }
      ep->parts.push_back(std::move(part.net));
    }
  } else {
    ep->compiled.push_back(std::make_unique<CompiledNetwork>(*cfg_.net));
    const std::uint32_t fan_in = cfg_.net->fan_in();
    for (std::uint32_t s = 0; s < cfg_.shards; ++s) {
      ep->nets.push_back(std::make_unique<BatchTraversal>(*ep->compiled[0]));
      auto& feed = ep->feeds.emplace_back(fan_in);
      for (std::uint32_t j = 0; j < fan_in; ++j) feed[j] = (s + j) % fan_in;
      auto& labels = ep->sink_labels.emplace_back(w);
      for (std::uint32_t u = 0; u < w; ++u) labels[u] = s * w + u;
    }
  }
  const auto n = static_cast<std::uint32_t>(ep->nets.size());
  ep->map = residue::EpochMap{tickets_.load(std::memory_order_relaxed), n};

  const std::uint64_t t0 = now_ns();
  ep->queues.reserve(n);
  ep->runtimes.reserve(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    ep->queues.push_back(
        std::make_unique<BoundedQueue<Request>>(cfg_.queue_capacity));
    auto rt = std::make_unique<ShardRuntime>();
    rt->chaos = cfg_.chaos.for_shard(s);
    rt->last_beat_ns.store(t0, std::memory_order_relaxed);
    ep->runtimes.push_back(std::move(rt));
  }

  TopologyEpoch* raw = ep.get();
  epoch_ = std::move(ep);
  epoch_ptr_.store(raw, std::memory_order_release);
  level_.store(level, std::memory_order_relaxed);
  nshards_.store(n, std::memory_order_relaxed);
  raw->workers.reserve(n);
  for (std::uint32_t s = 0; s < n; ++s) {
    raw->workers.emplace_back([this, raw, s] { worker_loop(raw, s); });
  }
  accepting_.store(true, std::memory_order_release);
}

void CountingService::start() {
  if (started_) return;
  started_ = true;
  {
    std::lock_guard<std::mutex> lock(fence_mu_);
    install_epoch(0);
  }
  if (cfg_.supervise) {
    supervisor_ = std::thread([this] { supervisor_loop(); });
  }
}

bool CountingService::shed_if_over(TopologyEpoch& ep, std::uint32_t runs,
                                   std::uint32_t n) {
  if (!(cfg_.shed_high_watermark > 0.0)) return false;
  const std::uint64_t next = tickets_.load(std::memory_order_relaxed);
  bool over = false;
  for (std::uint32_t j = 0; j < runs; ++j) {
    // Hysteresis: a shard whose depth reached the high watermark sheds
    // until its depth falls to the low one.
    const std::uint32_t s = ep.map.shard_of(next + j);
    const double cap = static_cast<double>(ep.queues[s]->capacity());
    const std::size_t depth = ep.queues[s]->approx_size();
    std::atomic<bool>& shedding = ep.runtimes[s]->shedding;
    const bool was = shedding.load(std::memory_order_relaxed);
    const bool shed =
        was ? depth > static_cast<std::size_t>(cap * cfg_.shed_low_watermark)
            : depth >= std::max<std::size_t>(
                           static_cast<std::size_t>(
                               cap * cfg_.shed_high_watermark),
                           1);
    if (shed != was) shedding.store(shed, std::memory_order_relaxed);
    over = over || shed;
  }
  if (over) ep.shed.fetch_add(n, std::memory_order_relaxed);
  return over;
}

bool CountingService::push_run(TopologyEpoch& ep, const Request& run) {
  const std::uint32_t s = ep.map.shard_of(run.ticket);
  if (!ep.queues[s]->try_push(run)) {
    // The run's tickets are burned: their residue slots will never be
    // served, so a rejection under load shows up as a counting-property
    // hole — that is deliberate (overload degrades the guarantee and we
    // measure it).
    ep.rejected.fetch_add(run.count, std::memory_order_relaxed);
    return false;
  }
  ep.runtimes[s]->idle.notify_if_waiters();
  return true;
}

bool CountingService::try_submit(std::uint32_t client,
                                 std::uint64_t arrival_ns,
                                 std::atomic<std::uint64_t>* done) {
  if (!accepting_.load(std::memory_order_acquire)) return false;
  // The pending-submit count doubles as the epoch lease: the fence (and
  // stop()) closes admission and waits this count out before touching
  // the epoch's queues, so no push can land after the workers observe
  // retirement and no submitter can hold the epoch pointer across a
  // swap. The increment and the recheck form one half of a Dekker
  // handshake with the fence's close-then-wait; both sides must be
  // seq_cst or a submit could slip past a fence that read pending == 0.
  pending_submits_.fetch_add(1, std::memory_order_seq_cst);
  if (!accepting_.load(std::memory_order_seq_cst)) {
    pending_submits_.fetch_sub(1, std::memory_order_release);
    return false;
  }
  TopologyEpoch& ep = *epoch_ptr_.load(std::memory_order_acquire);
  // Admission control: predict the target shard from the next ticket and
  // check its watermark BEFORE drawing a ticket. A shed therefore burns
  // nothing — no ticket, no residue hole — unlike the queue-full
  // rejection in push_run, which is the watermark race's accounted
  // backstop.
  bool queued = false;
  if (!shed_if_over(ep, 1, 1)) {
    Request req;
    req.ticket = tickets_.fetch_add(1, std::memory_order_relaxed);
    req.arrival_ns = arrival_ns;
    req.client = client;
    req.done = done;
    if (cfg_.record) {
      // Lock-free seq draw: the shared counter makes seqs globally
      // unique and every record's last_seq (drawn at completion) greater
      // than its first_seq. A rejection simply burns its seq — the
      // contract needs monotone keys, not dense ones.
      req.first_seq = events_.fetch_add(1, std::memory_order_relaxed);
    }
    queued = push_run(ep, req);
  }
  pending_submits_.fetch_sub(1, std::memory_order_release);
  return queued;
}

CountingService::BatchResult CountingService::submit_batch(
    std::uint32_t client, std::uint64_t arrival_ns,
    std::atomic<std::uint64_t>* slots, std::uint32_t n) {
  BatchResult res;
  if (n == 0) return res;
  if (!accepting_.load(std::memory_order_acquire)) return res;
  // ONE lease for the whole batch: the fence waits this lease out before
  // retiring the epoch, so a batch can never straddle an epoch boundary
  // — all its tickets live in one epoch's range. Same Dekker handshake
  // as try_submit.
  pending_submits_.fetch_add(1, std::memory_order_seq_cst);
  if (!accepting_.load(std::memory_order_seq_cst)) {
    pending_submits_.fetch_sub(1, std::memory_order_release);
    return res;
  }
  TopologyEpoch& ep = *epoch_ptr_.load(std::memory_order_acquire);
  const std::uint32_t nsh = static_cast<std::uint32_t>(ep.map.shards);
  const std::uint32_t runs = n < nsh ? n : nsh;
  // Admission is all-or-nothing and precedes the ticket draw: a shed
  // batch burns NO residue slot. Every target shard (the batch touches
  // min(n, shards) residue classes) must be under its watermark.
  if (shed_if_over(ep, runs, n)) {
    pending_submits_.fetch_sub(1, std::memory_order_release);
    res.shed = n;
    return res;
  }
  // ONE dispenser RMW for the whole batch. The contiguous range
  // [t0, t0 + n) splits by residue class into `runs` arithmetic
  // sequences with stride nsh — Lemma 3.1 makes the split exact, so a
  // batch is precisely as auditable as n single submits.
  const std::uint64_t t0 = tickets_.fetch_add(n, std::memory_order_relaxed);
  std::uint64_t e0 = 0;
  if (cfg_.record) e0 = events_.fetch_add(n, std::memory_order_relaxed);
  std::uint64_t cells = 0;
  for (std::uint32_t j = 0; j < runs; ++j) {
    Request cell;
    cell.ticket = t0 + j;
    cell.first_seq = e0 + j;
    cell.arrival_ns = arrival_ns;
    cell.client = client;
    cell.count = (n - j + nsh - 1) / nsh;  // ceil((n - j) / nsh)
    cell.done = slots != nullptr ? slots + j : nullptr;
    if (push_run(ep, cell)) {
      res.accepted += cell.count;
      ++cells;
    } else {
      // The run's slots are resolved HERE so a batch client never waits
      // on a refused run.
      res.rejected += cell.count;
      for (std::uint32_t i = 0; i < cell.count; ++i) {
        cell.signal(i, nsh, kRejectedSignal);
      }
    }
  }
  ep.ingress_batches.fetch_add(1, std::memory_order_relaxed);
  ep.ingress_cells.fetch_add(cells, std::memory_order_relaxed);
  pending_submits_.fetch_sub(1, std::memory_order_release);
  return res;
}

void CountingService::worker_loop(TopologyEpoch* epoch, std::uint32_t shard) {
  TopologyEpoch& ep = *epoch;
  BatchTraversal& net = *ep.nets[shard];
  const std::vector<std::uint32_t>& feed = ep.feeds[shard];
  const std::vector<std::uint32_t>& sink_label = ep.sink_labels[shard];
  BoundedQueue<Request>& queue = *ep.queues[shard];
  ShardRuntime& rt = *ep.runtimes[shard];
  const bool inject = cfg_.fault.thread_faults();
  // The fault stream lives in the shard runtime and survives respawns:
  // the successor worker continues the dead worker's draw sequence, so a
  // recovered execution is the exact logical continuation (deterministic
  // replay across crashes). Elastic epochs start their shards' streams
  // fresh — the epoch boundary is the deterministic restart point.
  if (inject && rt.faults == nullptr) {
    rt.faults = std::make_unique<fault::FaultStream>(cfg_.fault, cfg_.seed,
                                                     200 + shard);
  }

  std::vector<Request> batch(cfg_.max_batch);
  std::vector<Value> values(cfg_.max_batch);
  bool draining = false;
  std::uint32_t idle_rounds = 0;
  // The idle park is timed, but no known liveness property depends on
  // the timeout: a push is seen by the re-check or wakes the park (the
  // fences in EventCount; see util/eventcount.hpp), and the fence and
  // stop() notify_all every parked worker after raising their flags.
  // The backstop stays until an interleaving explorer has checked the
  // protocol with untimed parks.
  constexpr std::uint32_t kIdleYields = 16;
  constexpr std::uint64_t kIdleParkNs = 200'000;
  // Every stall the worker takes — a chaos window or drawn thread
  // faults — sleeps here and is counted here.
  const auto stall = [&rt](std::uint64_t times, std::uint64_t ns) {
    rt.stalls.fetch_add(times, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::nanoseconds(ns * times));
  };

  for (;;) {
    rt.heartbeat.fetch_add(1, std::memory_order_relaxed);
    rt.last_beat_ns.store(now_ns(), std::memory_order_relaxed);

    // --- chaos triggers, keyed on the processed-request count ---------
    const std::uint64_t processed =
        rt.processed.load(std::memory_order_relaxed);
    std::uint64_t cap = cfg_.max_batch;
    if (rt.stall_window_end > 0) {
      if (processed < rt.stall_window_end) {
        stall(1, rt.stall_window_ns);
        cap = std::min(cap, rt.stall_window_end - processed);
      } else {
        rt.stall_window_end = 0;
      }
    }
    if (rt.chaos_next < rt.chaos.size()) {
      const fault::ChaosEvent& e = rt.chaos[rt.chaos_next];
      if (processed >= e.at_ops) {
        ++rt.chaos_next;
        if (e.kind == fault::ChaosKind::kWorkerCrash) {
          // The crash takes exactly `lose` in-flight tickets with it:
          // consume-and-abandon them ELEMENT-wise (accounted residue
          // holes), the carry run first — a partially consumed cell is
          // in flight exactly like a popped single — then die, waking
          // the supervisor, which joins this thread and respawns the
          // shard (the successor resumes the surviving carry tail); on
          // shutdown the wait is cut short so a thirsty crash can never
          // wedge stop().
          std::uint64_t lost = 0;
          while (lost < e.lose) {
            if (rt.carry_pos < rt.carry.count) {
              rt.carry.signal(rt.carry_pos++, ep.map.shards, kDroppedSignal);
              ++lost;
            } else if (queue.try_pop(rt.carry)) {
              rt.carry_pos = 0;
            } else if (stopping_.load(std::memory_order_acquire) ||
                       ep.retiring.load(std::memory_order_acquire)) {
              break;
            } else {
              std::this_thread::yield();
            }
          }
          if (lost > 0) done_ec_.notify_all();
          rt.crash_lost.fetch_add(lost, std::memory_order_relaxed);
          rt.crashes.fetch_add(1, std::memory_order_relaxed);
          rt.exited.store(true, std::memory_order_release);
          rt.crashed.store(true, std::memory_order_release);
          supervisor_ec_.notify_all();
          return;
        }
        // Stall window begins at this exact point.
        rt.stall_window_end = e.at_ops + e.duration_ops;
        rt.stall_window_ns = e.stall_ns;
        continue;
      }
      // Batch formation never straddles a trigger: the crash point is
      // exact, which is what makes recoveries replayable.
      cap = std::min(cap, e.at_ops - processed);
    }

    // --- batch formation: expand queue cells element-wise -------------
    // A cell carries a run of `count` requests striding by the epoch's
    // shard count N; formation caps at `cap` ELEMENTS (chaos triggers and
    // max_batch count requests, not cells), carrying a partially
    // consumed cell to the next iteration — or to a respawned
    // successor, which resumes it exactly where this worker left off.
    std::size_t n = 0;
    while (n < cap) {
      if (rt.carry_pos >= rt.carry.count) {
        if (!queue.try_pop(rt.carry)) break;
        rt.carry_pos = 0;
      }
      const Request& c = rt.carry;
      while (n < cap && rt.carry_pos < c.count) {
        const std::uint64_t off =
            static_cast<std::uint64_t>(rt.carry_pos) * ep.map.shards;
        Request& r = batch[n++];
        r.ticket = c.ticket + off;
        r.first_seq = c.first_seq + off;
        r.arrival_ns = c.arrival_ns;
        r.client = c.client;
        r.count = 1;
        r.done = c.done != nullptr ? c.done + off : nullptr;
        ++rt.carry_pos;
      }
    }
    if (n == 0) {
      if (draining) break;
      if (stopping_.load(std::memory_order_acquire) ||
          ep.retiring.load(std::memory_order_acquire)) {
        // All submits finished before retirement was flagged; one more
        // empty pop after observing it means the queue is drained for
        // good.
        draining = true;
        continue;
      }
      if (++idle_rounds <= kIdleYields) {
        std::this_thread::yield();
        continue;
      }
      // Park on the shard eventcount. The recheck between prepare and
      // commit closes the race with a push (either the recheck sees the
      // push or the submitter's notify_if_waiters sees the
      // registration), and with a fence/stop flag (its notify_all).
      const std::uint32_t key = rt.idle.prepare_wait();
      if (queue.approx_size() > 0 ||
          stopping_.load(std::memory_order_acquire) ||
          ep.retiring.load(std::memory_order_acquire)) {
        rt.idle.cancel_wait();
        continue;
      }
      rt.idle.commit_wait(key, now_ns() + kIdleParkNs);
      continue;
    }
    idle_rounds = 0;
    rt.processed.fetch_add(n, std::memory_order_relaxed);

    // batch[0..k) are the elements that reach the traversal: all n of
    // them unless thread faults abandon some, which are signalled and
    // compacted out in place (survivors keep their order).
    auto k = static_cast<std::uint32_t>(n);
    bool slots_stored = false;
    if (inject) {
      std::uint64_t stall_draws = 0;
      k = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (rt.faults->flip(cfg_.fault.p_thread_stall)) ++stall_draws;
        if (rt.faults->flip(cfg_.fault.p_thread_abandon)) {
          rt.dropped.fetch_add(1, std::memory_order_relaxed);
          if (batch[i].done != nullptr) {
            batch[i].done->store(kDroppedSignal, std::memory_order_release);
            slots_stored = true;
          }
        } else {
          batch[k++] = batch[i];
        }
      }
      if (stall_draws > 0) stall(stall_draws, cfg_.fault.stall_ns);
    }

    std::uint64_t completion_ns = 0;
    const std::uint64_t cursor = rt.feed_cursor;
    if (k > 0) {
      // Balanced cyclic feeding continues from the previous batch, the
      // discipline verify_extraction certifies for an elastic part (a
      // merger tail, not an arbitrary-input counting network). ONE call
      // returns the batch's values ascending: first-in, first-out.
      net.increment_batch(feed, cursor, k, values.data());
      rt.feed_cursor = (cursor + k) % feed.size();
      completion_ns = now_ns();
      for (std::uint32_t i = 0; i < k; ++i) {
        const Value global = ep.map.global_value(values[i], shard);
        const std::uint64_t lat = completion_ns > batch[i].arrival_ns
                                      ? completion_ns - batch[i].arrival_ns
                                      : 0;
        rt.latency.record(lat);
        if (batch[i].done != nullptr) {
          batch[i].done->store(global + 1, std::memory_order_release);
          slots_stored = true;
        }
      }
      rt.completed.fetch_add(k, std::memory_order_relaxed);
      rt.batches.fetch_add(1, std::memory_order_relaxed);
      if (k > rt.max_batch.load(std::memory_order_relaxed)) {
        rt.max_batch.store(k, std::memory_order_relaxed);
      }
    }

    if (cfg_.record && k > 0) {
      // Lock-free recording: ONE last_seq range draw for the sub-batch
      // (the shared counter keeps every last_seq above its first_seq and
      // all seqs unique), records appended to this shard's single-writer
      // lane, which append_issue_ordered keeps in issue order (a request
      // whose submitter drew its first_seq before another's but pushed
      // after it lands behind records it precedes). Abandoned elements
      // emit nothing — an unresolved seq is simply absent from the merged
      // stream.
      const std::uint64_t ls =
          events_.fetch_add(k, std::memory_order_relaxed);
      for (std::uint32_t i = 0; i < k; ++i) {
        TokenRecord rec;
        rec.token = static_cast<TokenId>(batch[i].ticket);
        rec.process = batch[i].client;
        rec.source = feed[(cursor + i) % feed.size()];
        // Local value v exited local sink v mod (local width).
        rec.sink = sink_label[values[i] % sink_label.size()];
        rec.value = ep.map.global_value(values[i], shard);
        rec.t_in = static_cast<double>(batch[i].arrival_ns);
        rec.t_out = static_cast<double>(completion_ns);
        rec.first_seq = batch[i].first_seq;
        rec.last_seq = ls + i;
        append_issue_ordered(rt.lane, rec);
      }
    }

    // One wake RMW per drained batch, amortized over its completions.
    if (slots_stored) done_ec_.notify_all();
  }
  rt.exited.store(true, std::memory_order_release);
}

void CountingService::supervisor_loop() {
  const bool controller = cfg_.elastic.enabled && cfg_.elastic.controller;
  for (;;) {
    // Registered before the sweep reads anything: a crash or stop() that
    // lands during the sweep bumps the key, so the wait after it returns
    // at once (the eventcount protocol, util/eventcount.hpp).
    const std::uint32_t key = supervisor_ec_.prepare_wait();
    supervisor_sweeps_.fetch_add(1, std::memory_order_relaxed);
    // One FINAL sweep after observing stopping_: a crash that raced the
    // shutdown still gets its respawn, so the successor drains the queue
    // and no accepted ticket is silently stranded.
    const bool final_pass = stopping_.load(std::memory_order_acquire);
    std::uint32_t resize_target = 0;
    bool want_resize = false;
    // A fence in progress (or a report such as health()) holds the lock;
    // skipping a sweep is safe — a fence does its own heal-and-join —
    // but the skipped sweep saw nothing, not even the crash that may have
    // woken it, so it assumes the stalest heartbeat and the next sweep
    // comes at the fast period.
    std::uint64_t stalest = std::numeric_limits<std::uint64_t>::max();
    if (fence_mu_.try_lock()) {
      stalest = 0;
      TopologyEpoch* ep = epoch_ptr_.load(std::memory_order_acquire);
      const std::uint64_t now = now_ns();
      double depth_sum = 0.0;
      if (ep != nullptr) {
        for (std::uint32_t s = 0;
             s < static_cast<std::uint32_t>(ep->runtimes.size()); ++s) {
          ShardRuntime& rt = *ep->runtimes[s];
          const std::size_t depth = ep->queues[s]->approx_size();
          depth_sum += static_cast<double>(depth) /
                       static_cast<double>(ep->queues[s]->capacity());
          if (rt.crashed.load(std::memory_order_acquire)) {
            // The dead worker set `crashed` as its last act; joining it
            // first makes the respawn a clean handoff of the shard's
            // persistent state (fault stream, chaos cursor).
            ep->workers[s].join();
            rt.crashed.store(false, std::memory_order_release);
            respawn(*ep, s);
          } else {
            // Wedged-but-alive (e.g. a chaos stall window): a stale
            // heartbeat with work queued. A thread cannot be safely
            // killed, so this is detection — the count and the heartbeat
            // age surface in health()/stats.
            const std::uint64_t beat =
                rt.last_beat_ns.load(std::memory_order_relaxed);
            const std::uint64_t age = now > beat ? now - beat : 0;
            const bool wedged = depth > 0 && age > kWedgeTimeoutNs;
            if (!rt.wedged.exchange(wedged, std::memory_order_relaxed) &&
                wedged) {
              ++rt.wedge_detections;
            }
            stalest = std::max(stalest, age);
          }
        }
        // Adaptive elastic controller: split on sustained queue
        // pressure, merge when drained, with hysteresis (breach_polls)
        // and a cooldown between transitions.
        if (controller && !final_pass &&
            !ep->retiring.load(std::memory_order_relaxed)) {
          const double frac =
              depth_sum / static_cast<double>(ep->runtimes.size());
          const std::uint32_t level = ep->level;
          if (frac >= cfg_.elastic.split_queue_frac) {
            ++split_streak_;
            merge_streak_ = 0;
          } else if (frac <= cfg_.elastic.merge_queue_frac) {
            ++merge_streak_;
            split_streak_ = 0;
          } else {
            split_streak_ = 0;
            merge_streak_ = 0;
          }
          const bool cooled =
              now - last_resize_ns_ >= cfg_.elastic.cooldown_ns;
          if (cooled && split_streak_ >= cfg_.elastic.breach_polls &&
              level < cfg_.elastic.max_level) {
            resize_target = level + 1;
            want_resize = true;
          } else if (cooled && merge_streak_ >= cfg_.elastic.breach_polls &&
                     level > 0) {
            resize_target = level - 1;
            want_resize = true;
          }
        }
      }
      fence_mu_.unlock();
    }
    if (want_resize && !stopping_.load(std::memory_order_acquire)) {
      split_streak_ = 0;
      merge_streak_ = 0;
      resize(resize_target);  // Takes fence_mu_ itself.
    }
    if (final_pass) {
      supervisor_ec_.cancel_wait();
      return;
    }
    const std::uint64_t t = now_ns();
    supervisor_ec_.commit_wait(
        key, t + supervisor_period_ns(controller, stalest), t);
  }
}

void CountingService::respawn(TopologyEpoch& ep, std::uint32_t s) {
  ep.runtimes[s]->exited.store(false, std::memory_order_release);
  ++ep.runtimes[s]->respawns;
  ep.workers[s] = std::thread([this, &ep, s] { worker_loop(&ep, s); });
}

EpochStats CountingService::tally(const TopologyEpoch& ep) const {
  EpochStats es;
  es.index = ep.index;
  es.level = ep.level;
  es.shards = static_cast<std::uint32_t>(ep.runtimes.size());
  es.base = ep.map.base;
  es.f_nl_bound = f_nl_bound(ep.level);
  es.f_nsc_bound = f_nsc_bound(ep.level);
  // Mid-run the reads race the writers. Reading the shards before the
  // dispenser keeps a snapshot's completions within its submits: every
  // completed ticket was drawn, and not rejected, before it was read.
  for (const auto& rt : ep.runtimes) {
    const std::uint64_t done_here =
        rt->completed.load(std::memory_order_relaxed);
    es.shard_completed.push_back(done_here);
    es.completed += done_here;
    es.dropped += rt->dropped.load(std::memory_order_relaxed);
    es.crash_lost += rt->crash_lost.load(std::memory_order_relaxed);
    es.crashes += rt->crashes.load(std::memory_order_relaxed);
    es.batches += rt->batches.load(std::memory_order_relaxed);
    es.stalls += rt->stalls.load(std::memory_order_relaxed);
    es.max_batch_seen = std::max(
        es.max_batch_seen, rt->max_batch.load(std::memory_order_relaxed));
    es.respawns += rt->respawns;
    es.wedge_detections += rt->wedge_detections;
  }
  es.shed = ep.shed.load(std::memory_order_relaxed);
  es.ingress_batches = ep.ingress_batches.load(std::memory_order_relaxed);
  es.ingress_cells = ep.ingress_cells.load(std::memory_order_relaxed);
  es.rejected = ep.rejected.load(std::memory_order_relaxed);
  es.tickets = tickets_.load(std::memory_order_relaxed) - ep.map.base;
  es.submitted = es.tickets > es.rejected ? es.tickets - es.rejected : 0;
  return es;
}

const CountingService::TopologyEpoch* CountingService::live_epoch() const {
  return epoch_ && epoch_stats_.size() <= epoch_->index ? epoch_.get()
                                                        : nullptr;
}

ServiceCounts CountingService::ledger() const {
  ServiceCounts sum;
  for (const EpochStats& es : epoch_stats_) sum += es;
  if (const TopologyEpoch* live = live_epoch()) sum += tally(*live);
  return sum;
}

void CountingService::retire_epoch() {
  if (!epoch_) return;
  TopologyEpoch& ep = *epoch_;
  // --- quiescence fence -------------------------------------------------
  // 1. Close admission and wait out in-flight submits: after this, no
  //    push can land in the epoch's queues, ever. The exchange is the
  //    fence's half of the Dekker handshake with try_submit (see there):
  //    a plain release store could sit in a store buffer while this
  //    thread reads a stale pending count of zero.
  accepting_.exchange(false, std::memory_order_seq_cst);
  while (pending_submits_.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }
  // 2. Flag retirement; every worker drains its queue and exits. A
  //    worker whose park re-check missed the flag registered before this
  //    notify_all's epoch bump, so the bump wakes it.
  ep.retiring.store(true, std::memory_order_release);
  for (auto& rt : ep.runtimes) rt->idle.notify_all();
  // 3. Heal-and-join: respawn crashed workers so their queues drain (the
  //    successor observes `retiring` and exits once empty). Without
  //    supervision the dead shard's queue is scavenged below instead.
  for (;;) {
    bool all_exited = true;
    for (std::uint32_t s = 0;
         s < static_cast<std::uint32_t>(ep.runtimes.size()); ++s) {
      ShardRuntime& rt = *ep.runtimes[s];
      if (rt.crashed.load(std::memory_order_acquire)) {
        ep.workers[s].join();
        rt.crashed.store(false, std::memory_order_release);
        if (cfg_.supervise && ep.queues[s]->approx_size() > 0) {
          respawn(ep, s);
          all_exited = false;
        }
        // else: stays dead (exited already true); scavenged below.
      } else if (!rt.exited.load(std::memory_order_acquire)) {
        all_exited = false;
      }
    }
    if (all_exited) break;
    std::this_thread::yield();
  }
  for (std::thread& w : ep.workers) {
    if (w.joinable()) w.join();
  }
  // The workers are joined, so the runtimes' counts are final: they,
  // the epoch's atomics and its ticket range become its ledger.
  EpochStats es = tally(ep);
  // 4. Scavenge requests stranded on dead, never-respawned shards:
  //    signal their clients — a completion slot must NEVER hang — and
  //    account each as an `abandoned` residue hole. Element-wise: a
  //    stranded batch cell strands every element of its run, and a dead
  //    worker's partially consumed carry strands its tail.
  {
    bool scavenged = false;
    const auto scavenge_run = [&](const Request& c, std::uint32_t from) {
      for (std::uint32_t i = from; i < c.count; ++i) {
        c.signal(i, ep.map.shards, kDroppedSignal);
        ++es.abandoned;
        scavenged = true;
      }
    };
    for (std::size_t s = 0; s < ep.queues.size(); ++s) {
      ShardRuntime& rt = *ep.runtimes[s];
      scavenge_run(rt.carry, rt.carry_pos);
      rt.carry_pos = rt.carry.count;
      Request r;
      while (ep.queues[s]->try_pop(r)) scavenge_run(r, 0);
    }
    if (scavenged) done_ec_.notify_all();
  }

  // --- the per-epoch audit (Lemma 3.1 at the fence) --------------------
  es.gap_free = true;
  for (std::size_t s = 0; s < ep.runtimes.size(); ++s) {
    es.latency.merge(ep.runtimes[s]->latency);
    // Gap-freedom per residue class: a shard network's quiescent total
    // is exactly how many local values 0..total-1 it handed out, so
    // total == completed(shard) means the class's completed global
    // values are contiguous multiples-plus-residue with precisely the
    // accounted tickets missing.
    if (ep.nets[s]->total() != es.shard_completed[s]) es.gap_free = false;
  }
  es.audit_exact = residue_audit(es, es.gap_free).exact;
  if (cfg_.record) {
    // The epoch's record stream ends here: the workers are joined, so
    // their single-writer lanes are quiescent, and each is already in
    // issue order (its worker appended through append_issue_ordered). One
    // k-way merge into the tee honors the exact issue-order contract the
    // analyzers require, one epoch at a time. Seqs that never resolved
    // (rejected, crash-lost, abandoned) are simply absent. Cross-epoch
    // order holds because the next epoch's seqs are drawn after this
    // merge.
    std::vector<RecordLane> lanes;
    lanes.reserve(ep.runtimes.size());
    for (auto& rt : ep.runtimes) lanes.push_back(std::move(rt->lane));
    merge_issue_ordered(lanes, *tee_);
    epoch_sc_->finish();
    if (epoch_sc_->total() > 0) {
      es.f_nl = epoch_sc_->report().f_nl;
      es.f_nsc = epoch_sc_->report().f_nsc;
    } else {
      es.f_nl = 0.0;
      es.f_nsc = 0.0;
    }
    epoch_sc_->reset();
  }
  epoch_stats_.push_back(std::move(es));
  // The epoch object itself stays alive (epoch_) until the next install
  // or destruction — shard_total() reads its quiescent network totals.
}

std::string CountingService::resize(std::uint32_t level) {
  if (!cfg_.elastic.enabled) return "service: elastic mode is off";
  if (!started_) return "service: not started";
  if (level > cfg_.elastic.max_level) {
    return "service: level " + std::to_string(level) + " outside [0, " +
           std::to_string(cfg_.elastic.max_level) + "]";
  }
  std::lock_guard<std::mutex> lock(fence_mu_);
  if (stopped_.load(std::memory_order_acquire) ||
      stopping_.load(std::memory_order_acquire)) {
    return "service: stopping";
  }
  TopologyEpoch* cur = epoch_ptr_.load(std::memory_order_relaxed);
  if (cur == nullptr) return "service: no live epoch";
  if (cur->level == level) return {};  // No-op.
  retire_epoch();
  install_epoch(level);
  last_resize_ns_ = now_ns();
  return {};
}

ServiceHealth CountingService::health() const {
  std::lock_guard<std::mutex> lock(fence_mu_);
  ServiceHealth h;
  const std::uint64_t now = now_ns();
  if (epoch_) {
    const TopologyEpoch& ep = *epoch_;
    h.level = ep.level;
    h.epoch = ep.index;
    h.shards.resize(ep.runtimes.size());
    for (std::size_t s = 0; s < ep.runtimes.size(); ++s) {
      const ShardRuntime& rt = *ep.runtimes[s];
      ShardHealth& sh = h.shards[s];
      sh.queue_depth = ep.queues[s]->approx_size();
      sh.heartbeat = rt.heartbeat.load(std::memory_order_relaxed);
      const std::uint64_t beat =
          rt.last_beat_ns.load(std::memory_order_relaxed);
      sh.heartbeat_age_ns = (beat > 0 && now > beat) ? now - beat : 0;
      sh.processed = rt.processed.load(std::memory_order_relaxed);
      sh.completed = rt.completed.load(std::memory_order_relaxed);
      sh.shedding = rt.shedding.load(std::memory_order_relaxed);
      sh.crashed = rt.crashed.load(std::memory_order_relaxed);
    }
  }
  // After the gauges, so their completions stay within the submits.
  static_cast<ServiceCounts&>(h) = ledger();
  h.supervisor_sweeps = supervisor_sweeps_.load(std::memory_order_relaxed);
  return h;
}

std::vector<EpochStats> CountingService::epoch_history() const {
  std::lock_guard<std::mutex> lock(fence_mu_);
  std::vector<EpochStats> epochs = epoch_stats_;
  if (const TopologyEpoch* live = live_epoch()) epochs.push_back(tally(*live));
  return epochs;
}

ServiceStats CountingService::stats() const {
  const std::vector<EpochStats> epochs = epoch_history();
  ServiceStats st;
  st.timed_out = timed_out_.load(std::memory_order_relaxed);
  if (epochs.empty()) return st;  // Never started.
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    const EpochStats& es = epochs[i];
    st += es;
    st.latency.merge(es.latency);
    // Consecutive epochs differ in level (a no-op resize installs none).
    if (i > 0) ++(es.level > epochs[i - 1].level ? st.splits : st.merges);
  }
  st.epochs = epochs.size();
  st.final_level = epochs.back().level;
  st.shard_completed = epochs.back().shard_completed;
  st.mean_batch = st.batches > 0 ? static_cast<double>(st.completed) /
                                       static_cast<double>(st.batches)
                                 : 0.0;
  return st;
}

std::uint64_t CountingService::shard_total(std::uint32_t shard) const {
  std::lock_guard<std::mutex> lock(fence_mu_);
  // Only a retired epoch's shard networks may be read: its fence joined
  // their single writers.
  if (!epoch_ || live_epoch() != nullptr || shard >= epoch_->nets.size()) {
    return 0;
  }
  return epoch_->nets[shard]->total();
}

ResidueAudit CountingService::audit() const {
  std::lock_guard<std::mutex> lock(fence_mu_);
  // Gap-freedom was checked at each epoch's fence, on quiescent shard
  // networks (see retire_epoch); a live epoch has had no fence yet.
  const bool gap_free =
      !epoch_stats_.empty() && live_epoch() == nullptr &&
      std::all_of(epoch_stats_.begin(), epoch_stats_.end(),
                  [](const EpochStats& es) { return es.gap_free; });
  return residue_audit(ledger(), gap_free);
}

void CountingService::stop() {
  if (!started_ || stopped_.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  accepting_.exchange(false, std::memory_order_seq_cst);
  while (pending_submits_.load(std::memory_order_seq_cst) != 0) {
    std::this_thread::yield();
  }
  stopping_.store(true, std::memory_order_release);
  // The notify ends the supervisor's sleep at once; it exits after one
  // final sweep (and any in-flight controller resize completes first).
  // Joining it before the fence means no new worker threads appear
  // underneath the joins below.
  supervisor_ec_.notify_all();
  if (supervisor_.joinable()) supervisor_.join();
  {
    std::lock_guard<std::mutex> lock(fence_mu_);
    retire_epoch();
  }
  // Final wake: any client still parked on a completion slot has had
  // that slot resolved by the fence above (value, drop, or scavenge).
  done_ec_.notify_all();
}

}  // namespace cn::service
