// Counting-as-a-service: N independent single-writer shard networks
// (core/batch_traversal.hpp) behind a residue-class router, each drained
// by a dedicated worker thread doing adaptive batch formation — now
// SELF-HEALING: a supervisor thread
// watches per-shard heartbeats, detects crashed or wedged workers,
// respawns them on the same shard network, and the service audits its
// own residue accounting at quiescence.
//
// Routing is the modular-counting decomposition (paper Lemma 3.1): a
// ticket dispenser assigns each request a globally unique ticket t, the
// request is queued at shard t mod N, and a shard-local value v becomes
// the global value v * N + shard. Shard i therefore serves exactly the
// residue class { x : x ≡ i (mod N) }, and as long as every ticket
// completes, the union of the shards' outputs is a gap-free prefix
// 0..M-1 — counting is preserved with ZERO cross-shard coordination.
// Tickets that never complete (queue-full rejections, watermark sheds
// that never drew a ticket do NOT count here, fault-abandoned requests,
// crash-lost tickets, requests scavenged at shutdown) leave residue
// holes; audit() checks at quiescence that the holes the shards actually
// left equal the holes the stats accounted — hole-exactness is the
// service's self-test of Lemma 3.1 under failure.
//
// Self-healing layers, outermost first:
//
//   admission   try_submit sheds load when the target queue's depth
//               crosses the high watermark (hysteresis: sheds until it
//               falls below the low watermark). A shed consumes NO
//               ticket — it refuses before the dispenser — so shedding
//               degrades throughput, never the counting property.
//               Queue-full rejection (the watermark race's backstop)
//               still burns its ticket and is accounted as a hole.
//   supervisor  each worker bumps a heartbeat every loop iteration; the
//               supervisor sweeps the shards, joins-and-respawns workers
//               that died (deterministic chaos crashes) and counts
//               workers whose heartbeat is stale while their queue is
//               non-empty as wedge detections (visible in health(); a
//               stalled worker cannot be safely killed, but its window
//               ends and the heartbeat age quantifies it). Respawn
//               reuses the shard's persistent state — fault stream,
//               chaos cursor, feed cursor — so a recovered execution
//               replays the dead worker's exact logical continuation.
//               Between sweeps it sleeps on an eventcount: a crashing
//               worker and stop() wake it, and its timed period is
//               supervisor_period_ns — 50 µs while the elastic
//               controller samples or a shard is suspect (its heartbeat
//               over 1 ms old), 2.5 ms otherwise.
//   chaos       a fault::ChaosPlan (ServiceConfig::chaos) triggers
//               crashes and stall windows at exact processed-request
//               counts. Batch formation never straddles a trigger, so
//               the crash point is replayable.
//   shutdown    stop() drains normally; queued requests stranded by an
//               unsupervised crash are scavenged, their completion slots
//               signalled kDroppedSignal (a client can never hang on a
//               dead shard), and counted as `abandoned` holes.
//
// The ledger: each count lives in one place while its epoch runs — the
// shard's ShardRuntime (worker-side counts, respawns, wedges), the live
// TopologyEpoch (submitter-side counts), the dispenser (tickets), or the
// fence (scavenged requests) — and becomes the epoch's EpochStats at its
// fence. stats(), health(), audit() and epoch_history() are sums over
// the retired epochs plus the live one; splits and merges are read off
// the epoch levels. Client-reported timeouts are the one run-wide count.
//
// Determinism: with a deterministic submission schedule (e.g. one
// closed-loop submitter) and a chaos plan, every accounting field of
// ServiceStats is replayable — deterministic_fingerprint() serializes
// exactly those fields, and two same-seed runs compare byte-identical.
// Wall-clock-derived fields (latency, batches formed, idle parks) are
// excluded; they depend on real scheduling by nature.
//
// Each worker drains its shard's bounded MPSC queue up to max_batch
// requests and shepherds them through the shard network with ONE fed
// increment_batch call, continuing the shard's balanced cyclic feed
// where the previous batch stopped. A shard has exactly one writer at a
// time — its current worker; a respawn hands the shard over through the
// supervisor's join of the dead thread, and an epoch's fence joins every
// worker before anything reads the shard totals — so the traversal is a
// plain single-writer BatchTraversal with no atomics. It moves the batch
// layer by layer and merges the sub-batches converging on a balancer
// into one claim there: one plain add per REACHED balancer per batch
// (ConcurrentNetwork's depth-first split, which never re-merges, paid 95
// atomic RMWs for a 32-token batch on B(8)).
//
// Ingress batching (Lemma 3.1 again, at the entry point): submit_batch
// draws ONE contiguous ticket range with a single fetch_add(n) and
// splits it arithmetically into per-shard residue runs — the tickets
// {t0, t0+1, ..., t0+n-1} that land on shard s form an arithmetic
// sequence with stride N, so each shard receives at most ONE queue cell
// per batch, carrying {first ticket, count}; N is the epoch's shard
// count, which every reader of the cell has at hand. Queue traffic and
// dispenser RMWs drop from O(requests) to O(batches) while the residue
// accounting stays exactly as auditable as n single submits: a batch IS
// n consecutive tickets. Admission (watermarks + accepting) is checked
// once per batch BEFORE the draw, so sheds still burn no residue slot;
// a per-shard queue-full rejection burns exactly that shard's run. The
// queues' rings are zeroed memory that construction does not write
// (service/queue.hpp), so starting the service or an epoch costs
// nothing per queue cell.
//
// Waiting: completion slots and idle workers park on EventCounts
// (util/eventcount.hpp) instead of sleep-polling. Workers notify a
// service-wide completion eventcount once per drained batch; submitters
// notify a per-shard eventcount only when its worker is actually parked
// (a fence and a load on the hot path, no RMW). A worker whose queue runs
// dry yields until the queue has been empty for kIdlePollNs, then parks:
// a request that arrives within that gap finds it polling, not halted,
// and each committed park counts in the shard's `parks`.
//
// Tracing: when constructed with a TraceSink the service emits one
// TokenRecord per completed request. The recording path is LOCK-FREE:
// first_seq ranges are drawn at submit and last_seqs at completion from
// one shared atomic event counter (so every record's first_seq precedes
// its last_seq and seqs are globally unique), and each worker appends
// its records to a single-writer per-shard lane, which
// append_issue_ordered (trace/sink.hpp) keeps in issue order as it fills.
// A lane is a RecordLane that grows in fixed-size blocks, so an append
// never copies the records before it. At each epoch fence — and at
// stop() for the final epoch — one k-way merge by the issue key moves
// the lanes into the sink, which therefore
// sees the exact issue-order contract the live mutex-serialized path
// used to produce, one epoch at a time. Un-recorded runs (the saturation
// benchmarks) touch no shared mutable state beyond the queues, the
// dispenser, and the shard networks.
// Epochs (paper Props 5.6-5.10 + Lemma 3.1): shards live in a versioned
// TopologyEpoch. A classic service is its degenerate single epoch of N
// full-network shards fed in rotated identity order. When
// ServiceConfig::elastic is enabled, epoch e at split level ell runs
// 2^ell shards, each a Subnetwork extracted by core/split.hpp's
// SplitPlan from the SAME base topology, fed in its balanced cyclic
// feed order (the parts are merger tails, not arbitrary-input counting
// networks; verify_extraction certifies the discipline). Tickets are
// rebased per epoch: epoch-local ticket u = t - base routes to shard
// u mod 2^ell, and local value v becomes global base + v * 2^ell + shard
// (util/residue.hpp::EpochMap), so consecutive epochs tile the global
// value space gap-free no matter how often the width changes. resize(ell)
// drains the current epoch to a QUIESCENCE FENCE — admission closed,
// in-flight submits retired, every accepted ticket completed or
// accounted, per-epoch residue audit taken — then atomically installs
// the new epoch. A per-epoch StreamingConsistency tee reports measured
// F_nl / F_nsc against the Cor 5.12/5.13 adversarial lower bounds at the
// epoch's split level, and an adaptive controller (supervisor-driven)
// splits on sustained queue pressure and merges when drained.
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_traversal.hpp"
#include "core/compiled.hpp"
#include "core/split.hpp"
#include "core/topology.hpp"
#include "fault/chaos.hpp"
#include "fault/fault.hpp"
#include "service/config.hpp"
#include "service/histogram.hpp"
#include "service/queue.hpp"
#include "trace/sink.hpp"
#include "trace/streaming.hpp"
#include "util/cacheline.hpp"
#include "util/eventcount.hpp"
#include "util/residue.hpp"

namespace cn::service {

/// One queued counter request — or, on the batched ingress path, a RUN
/// of `count` requests from one submit_batch whose tickets (and, when
/// recording, first_seqs) form an arithmetic sequence whose stride is the
/// epoch's shard count: consecutive batch tickets landing on one shard
/// differ by exactly N. Element j of the run is the request
/// {ticket + j*N, first_seq + j*N, done + j*N}: the submitter's slot
/// array is indexed by BATCH position (slot i belongs to ticket t0 + i),
/// so a run's slots stride through it exactly like its tickets. A classic
/// try_submit is the count == 1 case. The stride is not stored: every
/// reader has the epoch at hand, so a queue cell stays 48 bytes.
struct Request {
  std::uint64_t ticket = 0;      ///< Global ticket (token id, route key).
  std::uint64_t first_seq = 0;   ///< Drawn at submit when recording.
  std::uint64_t arrival_ns = 0;  ///< Client-side arrival timestamp.
  std::uint32_t client = 0;      ///< Submitting client (trace process).
  std::uint32_t count = 1;       ///< Run length (1 = single submit).
  /// Completion slot: the worker stores value + 1 (0 = still pending),
  /// or kDroppedSignal when the request was fault-abandoned. May be
  /// null for fire-and-forget submission. For a run, element j's slot
  /// is done + j * N (when non-null).
  std::atomic<std::uint64_t>* done = nullptr;

  /// Stores `v` into element j's completion slot, if there is one, for a
  /// run striding by `stride` (its epoch's shard count).
  void signal(std::uint32_t j, std::uint32_t stride,
              std::uint64_t v) const noexcept {
    if (done == nullptr) return;
    done[std::uint64_t{j} * stride].store(v, std::memory_order_release);
  }
};

/// Stored to Request::done when a fault abandoned the request.
inline constexpr std::uint64_t kDroppedSignal =
    static_cast<std::uint64_t>(-1);

/// Stored to a batch element's slot when its shard queue was full: the
/// run's tickets were already drawn, so the refusal burns them (residue
/// holes, accounted as `rejected`) — distinguishable from kDroppedSignal
/// so clients can classify without waiting.
inline constexpr std::uint64_t kRejectedSignal =
    static_cast<std::uint64_t>(-2);

/// Cor 5.12 adversarial lower bound on the non-linearizable fraction at
/// split level ell: (1 - 2^-ell) / (2 - 2^-ell). A measured F_nl may
/// legitimately sit anywhere in [0, 1] — the bound says an adversary CAN
/// force at least this much, not that every schedule does.
inline double f_nl_bound(std::uint32_t ell) noexcept {
  const double p = std::ldexp(1.0, -static_cast<int>(ell));
  return (1.0 - p) / (2.0 - p);
}

/// Cor 5.13: the matching sequential-consistency bound 2^-ell/(2 - 2^-ell).
inline double f_nsc_bound(std::uint32_t ell) noexcept {
  const double p = std::ldexp(1.0, -static_cast<int>(ell));
  return p / (2.0 - p);
}

/// The service's ledger of counts: one epoch's, or, added up over the
/// epochs with +=, the run's (see "The ledger" above).
struct ServiceCounts {
  std::uint64_t submitted = 0;   ///< Accepted submits (queued tickets).
  std::uint64_t rejected = 0;    ///< Queue-full refusals; each burns its
                                 ///< ticket, leaving a residue hole.
  std::uint64_t shed = 0;        ///< Watermark refusals; no ticket burnt,
                                 ///< no hole — shedding is the service
                                 ///< protecting its own queues.
  std::uint64_t completed = 0;   ///< Requests that received a value.
  std::uint64_t dropped = 0;     ///< Fault-abandoned requests.
  std::uint64_t crash_lost = 0;  ///< Tickets taken down by worker crashes.
  std::uint64_t abandoned = 0;   ///< Queued requests scavenged at a fence
                                 ///< (dead shard, supervision off).
  std::uint64_t crashes = 0;     ///< Chaos worker crashes taken.
  std::uint64_t respawns = 0;    ///< Supervisor worker relaunches.
  std::uint64_t wedge_detections = 0;  ///< Stale-heartbeat observations.
  std::uint64_t batches = 0;     ///< increment_batch calls issued.
  /// Idle parks committed by the workers (NOT in the fingerprint: when a
  /// worker parks follows the clock, not the schedule).
  std::uint64_t parks = 0;
  std::uint64_t max_batch_seen = 0;  ///< Largest batch (a max, not a sum).
  /// Ingress shape (informational, NOT in the deterministic
  /// fingerprint — single vs batched submission must fingerprint
  /// identically): submit_batch calls accepted, and the queue cells
  /// they produced (<= min(batch, shards) cells per call).
  std::uint64_t ingress_batches = 0;
  std::uint64_t ingress_cells = 0;
  std::uint64_t stalls = 0;      ///< Injected worker stalls taken.

  ServiceCounts& operator+=(const ServiceCounts& other) noexcept;
};

/// The run's ledger: the sum over the epochs lived so far, plus what only
/// the run has. Complete after stop(); before it, the live epoch adds its
/// counts but not its latency, which its workers still write.
struct ServiceStats : ServiceCounts {
  /// Client-reported deadline expiries, one per request (count_timeout);
  /// informational — a timed-out request still completes.
  std::uint64_t timed_out = 0;
  double mean_batch = 0.0;       ///< completed / batches.
  std::uint64_t splits = 0;      ///< Epoch transitions to a deeper level.
  std::uint64_t merges = 0;      ///< Epoch transitions to a shallower one.
  std::uint64_t epochs = 1;      ///< Topology epochs lived (>= 1).
  std::uint32_t final_level = 0; ///< Split level of the last epoch.
  /// Per-shard completions of the FINAL epoch (the full run for a
  /// non-elastic service, which only ever has one epoch).
  std::vector<std::uint64_t> shard_completed;
  LatencyHistogram latency;      ///< Submit-to-completion, all epochs.
};

/// One topology epoch's ledger, recorded at its quiescence fence (or at
/// stop() for the final epoch). The per-epoch residue audit is Lemma 3.1
/// applied to the epoch's rebased ticket range [base, base + tickets):
/// ok() means the epoch's completed global values are exactly that range
/// minus the accounted holes — the acceptance gate `audit_exact &&
/// gap_free` across every boundary.
struct EpochStats : ServiceCounts {
  std::uint64_t index = 0;
  std::uint32_t level = 0;       ///< Split level (2^level shards).
  std::uint32_t shards = 1;
  std::uint64_t base = 0;        ///< First ticket / global value.
  std::uint64_t tickets = 0;     ///< Dispensed during the epoch.
  bool audit_exact = false;      ///< holes == accounted, this epoch.
  bool gap_free = false;         ///< Every shard total == completions.
  /// Streaming consistency over the epoch's records (record mode only;
  /// -1 when not recording) vs the Cor 5.12/5.13 adversarial lower
  /// bounds at this epoch's split level.
  double f_nl = -1.0;
  double f_nsc = -1.0;
  double f_nl_bound = 0.0;
  double f_nsc_bound = 0.0;
  std::vector<std::uint64_t> shard_completed;
  LatencyHistogram latency;      ///< The epoch's merged worker histograms.
  bool ok() const noexcept { return audit_exact && gap_free; }
};

/// Canonical serialization of the replayable subset of ServiceStats:
/// every accounting field whose value is a pure function of (workload
/// schedule, seed, chaos plan) — i.e. everything except wall-clock
/// artifacts (latency percentiles, batch formation, idle parks, wedge
/// detections).
/// Two same-seed runs under a deterministic submission schedule must
/// produce byte-identical fingerprints; the chaos tests enforce it.
std::string deterministic_fingerprint(const ServiceStats& stats);

/// Live gauges of one shard (pollable from any thread while the service
/// runs — every field is read from relaxed atomics).
struct ShardHealth {
  std::uint64_t queue_depth = 0;
  std::uint64_t heartbeat = 0;      ///< Monotone worker liveness counter.
  std::uint64_t heartbeat_age_ns = 0;  ///< Now minus last beat.
  std::uint64_t processed = 0;      ///< Requests dequeued so far.
  std::uint64_t completed = 0;
  std::uint64_t parks = 0;          ///< Idle parks its workers committed.
  bool shedding = false;            ///< Admission gate currently closed.
  bool crashed = false;             ///< Dead and not (yet) respawned.
};

/// Mid-run snapshot: the run's ledger so far (the same sum stats()
/// takes, without latency) and the live epoch's shard gauges.
struct ServiceHealth : ServiceCounts {
  std::vector<ShardHealth> shards;
  std::uint32_t level = 0;   ///< Current epoch's split level.
  std::uint64_t epoch = 0;   ///< Current epoch index.
  /// Supervisor passes so far, one per wake (a live gauge of its wake
  /// rate, not a ledger count: it follows the clock, not the schedule).
  std::uint64_t supervisor_sweeps = 0;
};

/// Quiescent residue accounting (the Lemma 3.1 audit) of a ledger, valid
/// after stop(). `holes` counts tickets that never produced a value;
/// `exact` says the ledger accounted every one of them; `gap_free` says
/// each shard's network total matches its completion count (local values
/// are contiguous 0..total-1 by the counting property, so together these
/// imply the completed global values are exactly the residue classes
/// minus the accounted holes).
struct ResidueAudit {
  std::uint64_t tickets = 0;     ///< Dispensed (submitted + rejected).
  std::uint64_t completed = 0;
  std::uint64_t holes = 0;       ///< tickets - completed.
  std::uint64_t accounted = 0;   ///< rejected + dropped + crash_lost +
                                 ///< abandoned.
  bool gap_free = false;
  bool exact = false;            ///< holes == accounted.
  bool ok() const noexcept { return gap_free && exact; }
};

/// A worker whose heartbeat has not advanced for this long while its
/// queue is non-empty counts as wedged (health + wedge_detections).
inline constexpr std::uint64_t kWedgeTimeoutNs = 5'000'000;
/// The supervisor's fast period: the elastic controller's sampling rate
/// (breach_polls counts samples taken at it), and the resolution at which
/// a suspect shard's wedge is timed.
inline constexpr std::uint64_t kSupervisorPollNs = 50'000;
/// Its period while nothing needs watching. Each wake takes the CPU from
/// a worker on a one-CPU host, so it is long: half the wedge timeout.
inline constexpr std::uint64_t kSupervisorIdleNs = kWedgeTimeoutNs / 2;
/// A shard is suspect once its worker's heartbeat is this old. A stall
/// turns suspect within one idle period after this age, 1-3.5 ms after
/// its last beat, and is then polled fast before it can be a wedge.
inline constexpr std::uint64_t kSuspectAgeNs = 1'000'000;
static_assert(kSuspectAgeNs + kSupervisorIdleNs + kSupervisorPollNs <
              kWedgeTimeoutNs);

/// A worker whose queue has been empty this long parks; until then it
/// polls by yielding, so any runnable thread on its CPU still gets it.
/// Waking a thread parked on a halted CPU costs the request several µs,
/// so the poll outlasts all but the rare gap of an open loop's arrivals
/// (at a 10 µs mean gap, e^-5 of them).
inline constexpr std::uint64_t kIdlePollNs = 50'000;
/// A parked worker's timed backstop. No known liveness property depends
/// on it: a push is seen by the park's re-check or wakes the park (the
/// fences in EventCount; see util/eventcount.hpp), and the fence and
/// stop() notify_all every parked worker after raising their flags. It
/// stays until an interleaving explorer has checked the protocol with
/// untimed parks. With no request to wake it, an idle worker parks once
/// per kIdleParkNs and beats its heartbeat at least as often.
inline constexpr std::uint64_t kIdleParkNs = 200'000;

/// How long the supervisor sleeps after a sweep: the fast period while
/// the elastic controller samples or the stalest heartbeat the sweep saw
/// is older than kSuspectAgeNs, the idle one otherwise. Queue depth does
/// not enter: a stall may begin on an empty queue and have work arrive
/// mid-stall, and a healthy worker beats at least once per 200 µs idle
/// park. A crash or stop() ends the sleep at once, so neither respawn nor
/// shutdown waits for it. Pure, so a test pins it without a clock.
inline std::uint64_t supervisor_period_ns(
    bool controller, std::uint64_t stalest_beat_age_ns) noexcept {
  return controller || stalest_beat_age_ns > kSuspectAgeNs
             ? kSupervisorPollNs
             : kSupervisorIdleNs;
}

class CountingService {
 public:
  /// `sink` may be null unless cfg.record is set. The caller keeps both
  /// cfg.net and the sink alive for the service's lifetime and calls
  /// sink->finish() itself after stop() (the service flushes but does
  /// not finish, so callers can tee several runs into one sink).
  explicit CountingService(const ServiceConfig& cfg,
                           TraceSink* sink = nullptr);
  ~CountingService();

  CountingService(const CountingService&) = delete;
  CountingService& operator=(const CountingService&) = delete;

  /// Launches the shard workers (and the supervisor). Call exactly once.
  void start();

  /// Submits one request. Returns false when the service is not
  /// accepting or the target queue is over its shed watermark — both
  /// refuse before the ticket draw and consume nothing — or when the
  /// target queue is full, which refuses AFTER the draw: the ticket is
  /// burnt, counted in stats().rejected, and leaves an accounted residue
  /// hole. A refused request's `done` slot is never touched; the caller
  /// decides whether to retry, back off, or count the refusal. `done`,
  /// if non-null, must stay valid until it is stored non-zero — the
  /// service guarantees every accepted request's slot is eventually
  /// stored (value, kDroppedSignal, or the shutdown scavenge), even
  /// across worker crashes.
  bool try_submit(std::uint32_t client, std::uint64_t arrival_ns,
                  std::atomic<std::uint64_t>* done = nullptr);

  /// Outcome of one submit_batch call. The three counters partition the
  /// batch: accepted requests were queued (their slots will be stored),
  /// rejected ones burnt their tickets on a full shard queue (slots
  /// already hold kRejectedSignal), shed ones never drew a ticket
  /// (slots untouched — all-or-nothing, shed == n or 0). All three zero
  /// means admission was closed (service stopping or fencing).
  struct BatchResult {
    std::uint32_t accepted = 0;
    std::uint32_t rejected = 0;
    std::uint32_t shed = 0;
    bool admitted() const noexcept {
      return accepted + rejected + shed != 0;
    }
  };

  /// Submits `n` requests as ONE ingress batch: one pending-submits
  /// lease (a batch never straddles an epoch fence), one admission
  /// check, one ticket-range fetch_add(n), and at most min(n, shards)
  /// queue cells — each carrying that shard's arithmetic run of the
  /// range. `slots`, if non-null, points at n consecutive completion
  /// slots in BATCH ORDER (slot i belongs to ticket t0 + i); each
  /// accepted slot is eventually stored exactly as try_submit's would
  /// be, and rejected runs' slots are stored kRejectedSignal before the
  /// call returns. Watermark shedding is all-or-nothing and happens
  /// before the ticket draw, so a shed batch leaves no residue holes.
  BatchResult submit_batch(std::uint32_t client, std::uint64_t arrival_ns,
                           std::atomic<std::uint64_t>* slots,
                           std::uint32_t n);

  /// The completion eventcount: workers notify it after storing any
  /// completion slots (values, drop signals, scavenges). Clients pass it
  /// to wait_done to park instead of sleep-polling.
  EventCount& completion_event() noexcept { return done_ec_; }

  /// Client-side deadline expiry report: `requests` timed out (folded
  /// into stats().timed_out).
  void count_timeout(std::uint64_t requests) noexcept {
    timed_out_.fetch_add(requests, std::memory_order_relaxed);
  }

  /// Stops accepting, drains every queue, joins the supervisor and the
  /// workers, scavenges requests stranded on dead shards, and retires
  /// the final epoch into the ledger. Idempotent.
  void stop();

  /// Elastic resharding: drains the current epoch to its quiescence
  /// fence (admission closed, every accepted ticket completed or
  /// accounted, per-epoch audit recorded), then installs a fresh epoch
  /// at split level `level` — 2^level shards, each an extracted
  /// subnetwork of the base topology — and reopens admission. Returns
  /// an empty string on success; resizing to the current level is a
  /// successful no-op. Callable from any thread (including the
  /// supervisor's controller); transitions are serialized.
  std::string resize(std::uint32_t level);

  /// Split level of the live epoch (0 when elastic mode is off).
  std::uint32_t current_level() const noexcept {
    return level_.load(std::memory_order_relaxed);
  }

  /// One entry per epoch lived so far. Snapshot — callable at any time;
  /// before stop() the last entry is the live epoch's counts so far (no
  /// audit, latency or F_nl yet: those are taken at its fence).
  std::vector<EpochStats> epoch_history() const;

  /// The sum of epoch_history(). Complete after stop(); a snapshot
  /// before it.
  ServiceStats stats() const;

  /// Mid-run snapshot; also valid (and quiescent) after stop().
  ServiceHealth health() const;

  /// The Lemma 3.1 residue audit of stats(), gap-free when every epoch's
  /// fence found it so. Valid after stop().
  ResidueAudit audit() const;

  /// Shard count of the live epoch.
  std::uint32_t shards() const noexcept {
    return nshards_.load(std::memory_order_relaxed);
  }

  /// Quiescent per-shard totals of the final epoch, valid after stop()
  /// (0 while that epoch's workers may still be writing).
  std::uint64_t shard_total(std::uint32_t shard) const;

 private:
  /// Per-shard state that survives worker respawns. The persistent
  /// deterministic state (fault stream, chaos cursor, feed cursor) is
  /// only ever touched by the shard's current worker — the supervisor
  /// joins the dead thread before spawning its successor, so handoff
  /// needs no lock.
  struct alignas(kCacheLineSize) ShardRuntime {
    std::atomic<std::uint64_t> heartbeat{0};
    std::atomic<std::uint64_t> last_beat_ns{0};
    std::atomic<std::uint64_t> processed{0};
    /// Ledger counts, written only by the shard's current worker.
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> dropped{0};
    std::atomic<std::uint64_t> crash_lost{0};
    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::uint64_t> parks{0};
    std::atomic<std::uint64_t> max_batch{0};
    std::atomic<std::uint64_t> stalls{0};
    std::atomic<std::uint64_t> crashes{0};
    /// Ledger counts written and read only under fence_mu_.
    std::uint64_t respawns = 0;
    std::uint64_t wedge_detections = 0;
    std::atomic<bool> crashed{false};
    std::atomic<bool> shedding{false};
    std::atomic<bool> wedged{false};  ///< Debounce wedge detection.

    std::atomic<bool> exited{false};  ///< Set on EVERY worker return.

    /// Idle-worker park/unpark: submitters notify_if_waiters after a
    /// push; the worker parks when its queue runs dry.
    EventCount idle;

    // Worker-only persistent state (see struct comment).
    std::unique_ptr<fault::FaultStream> faults;
    std::vector<fault::ChaosEvent> chaos;  ///< Sorted by at_ops.
    std::size_t chaos_next = 0;
    std::uint64_t feed_cursor = 0;  ///< Next position in the feed cycle.
    std::uint64_t stall_window_end = 0;   ///< processed bound, 0 = none.
    std::uint64_t stall_window_ns = 0;
    /// Partially consumed batch run: chaos triggers and max_batch cap
    /// batch formation at exact element counts, so a multi-element cell
    /// may be split across loop iterations (and across a respawn — the
    /// successor worker resumes the carry exactly where the crash cut
    /// it, minus the elements the crash consumed). carry_pos is the
    /// next unconsumed element; carry_pos == carry.count means no carry.
    Request carry{.count = 0};
    std::uint32_t carry_pos = 0;
    /// Lock-free recording lane: the shard's completed TokenRecords in
    /// issue order (single-writer — the current worker, which appends
    /// through append_issue_ordered). It grows block by block, so an
    /// append never copies earlier records. K-way merged into the sink
    /// at the epoch fence.
    RecordLane lane;
    LatencyHistogram latency;  ///< Single-writer (the current worker);
                               ///< merged at the epoch's fence.
  };

  /// One topology version: shard networks, queues, runtimes, and worker
  /// threads all live and die together. try_submit readers access the
  /// live epoch through a raw pointer whose lifetime the
  /// pending-submits lease guarantees: an epoch is only retired after
  /// admission is closed AND the pending count hits zero, so no
  /// submitter can hold a stale pointer across a swap. Workers keep
  /// their epoch pointer from spawn to join, and the fence joins them
  /// before the epoch is destroyed.
  struct TopologyEpoch {
    std::uint64_t index = 0;
    std::uint32_t level = 0;
    residue::EpochMap map{0, 1};  ///< Ticket rebase + residue routing.
    /// Every shard, in both modes: a compiled network, its entry wires in
    /// feed order, and the record sink of each local sink — built by
    /// install_epoch, the only place the mode shapes a shard. `parts`
    /// keeps an elastic epoch's extracted Networks alive.
    std::vector<std::shared_ptr<const Network>> parts;
    std::vector<std::unique_ptr<CompiledNetwork>> compiled;
    /// Shard networks, each written only by the shard's current worker.
    std::vector<std::unique_ptr<BatchTraversal>> nets;
    std::vector<std::vector<std::uint32_t>> feeds;
    std::vector<std::vector<std::uint32_t>> sink_labels;
    std::vector<std::unique_ptr<BoundedQueue<Request>>> queues;
    std::vector<std::unique_ptr<ShardRuntime>> runtimes;
    std::vector<std::thread> workers;
    /// The epoch's submitter-side ledger counts (many writers).
    alignas(kCacheLineSize) std::atomic<std::uint64_t> rejected{0};
    std::atomic<std::uint64_t> shed{0};
    std::atomic<std::uint64_t> ingress_batches{0};
    std::atomic<std::uint64_t> ingress_cells{0};
    alignas(kCacheLineSize) std::atomic<bool> retiring{false};
  };

  /// Admission for n requests about to draw the next n tickets, which
  /// land on `runs` shards: true, with the n counted as shed, when any
  /// target is over its watermark (every target's hysteresis advances).
  bool shed_if_over(TopologyEpoch& ep, std::uint32_t runs, std::uint32_t n);
  /// Queues a run of drawn tickets and wakes its shard's parked worker;
  /// false, with the run counted as rejected, when the queue is full.
  bool push_run(TopologyEpoch& ep, const Request& run);
  void worker_loop(TopologyEpoch* epoch, std::uint32_t shard);
  void supervisor_loop();
  // The rest require fence_mu_.
  /// Starts a successor on crashed shard `s`, whose worker was joined.
  void respawn(TopologyEpoch& ep, std::uint32_t s);
  /// `ep`'s ledger counts as its runtimes and atomics hold them now.
  EpochStats tally(const TopologyEpoch& ep) const;
  /// The live epoch; null before start() and once it has retired.
  const TopologyEpoch* live_epoch() const;
  /// The retired epochs' sum plus the live epoch's tally.
  ServiceCounts ledger() const;
  /// Builds + launches an epoch at `level` and opens admission. The only
  /// place the mode shapes a shard.
  void install_epoch(std::uint32_t level);
  /// The quiescence fence: closes admission, retires the live epoch
  /// (drain, heal, join, scavenge) and records its EpochStats. Does NOT
  /// reopen admission.
  void retire_epoch();

  ServiceConfig cfg_;
  TraceSink* sink_ = nullptr;
  std::unique_ptr<SplitPlan> plan_;  ///< Elastic mode only.

  /// Live epoch. Owner is epoch_; epoch_ptr_ is the submitters' raw
  /// acquire-load view (see TopologyEpoch's lifetime note). Both only
  /// change under fence_mu_ with admission closed and pending drained.
  std::shared_ptr<TopologyEpoch> epoch_;
  std::atomic<TopologyEpoch*> epoch_ptr_{nullptr};
  std::atomic<std::uint32_t> level_{0};
  std::atomic<std::uint32_t> nshards_{0};

  /// Serializes epoch transitions, supervisor sweeps, and health
  /// snapshots against each other. The supervisor try_locks so a long
  /// fence never blocks its exit. Its own cache line: the supervisor
  /// writes it every poll, and every submit reads epoch_ptr_.
  alignas(kCacheLineSize) mutable std::mutex fence_mu_;
  std::vector<EpochStats> epoch_stats_;  ///< Retired epochs (fence_mu_).

  /// Controller state (supervisor thread only).
  std::uint32_t split_streak_ = 0;
  std::uint32_t merge_streak_ = 0;
  std::uint64_t last_resize_ns_ = 0;
  /// Written by the supervisor alone, read by health().
  std::atomic<std::uint64_t> supervisor_sweeps_{0};

  /// The supervisor sleeps on it between sweeps; a crashing worker and
  /// stop() notify it. Its own cache line: the supervisor RMWs it twice
  /// a sweep.
  alignas(kCacheLineSize) EventCount supervisor_ec_;
  std::thread supervisor_;

  /// Next ticket; its low bits route. fetch_add is the ONLY cross-shard
  /// synchronization on the un-recorded fast path.
  alignas(kCacheLineSize) std::atomic<std::uint64_t> tickets_{0};
  alignas(kCacheLineSize) std::atomic<std::uint64_t> timed_out_{0};
  alignas(kCacheLineSize) std::atomic<std::uint64_t> pending_submits_{0};
  std::atomic<bool> accepting_{false};
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  /// Atomic: stop() flips it before taking fence_mu_, and the
  /// supervisor's controller reads it inside resize() while still
  /// running — the only cross-thread touch of the stop flags outside
  /// the lock.
  std::atomic<bool> stopped_{false};

  /// Completion park/unpark: notified by workers after any slot store.
  alignas(kCacheLineSize) EventCount done_ec_;

  // Recording path only — LOCK-FREE: events_ is the shared seq
  // dispenser (submit draws first_seq ranges, workers draw last_seqs;
  // one monotone counter makes first < last per record and all seqs
  // unique). Records accumulate, in issue order, in the per-shard
  // single-writer lanes and reach tee_ via a k-way merge at each fence,
  // under fence_mu_. tee_ feeds the per-epoch analyzer epoch_sc_ and the
  // user's sink; it is never finished — the fence finishes epoch_sc_
  // directly and the caller finishes its own sink.
  alignas(kCacheLineSize) std::atomic<std::uint64_t> events_{0};
  std::unique_ptr<StreamingConsistency> epoch_sc_;
  std::unique_ptr<TeeSink> tee_;
};

}  // namespace cn::service
