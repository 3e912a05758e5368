#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <span>
#include <tuple>
#include <vector>

#include "core/wave.hpp"
#include "util/id_slots.hpp"

namespace cn {

namespace {

constexpr TokenId kNoToken = std::numeric_limits<TokenId>::max();

/// Entries of the wave body's bucket array: one (plan, seq offset) pair
/// per step of a chunk, split into one bucket per level. A chunk is
/// kWaveChunk / (d + 1) steps, so no bucket can overflow, and the array's
/// size does not grow with the depth. Large enough to amortize each
/// level's pass, small enough that the buckets stay cache-resident; the
/// streaming body also drains its sink batches once per kWaveChunk steps.
constexpr std::size_t kWaveChunk = 4096;

/// Seq-offset sentinel of an overlay's drop step, which draws no
/// sequence number.
constexpr std::uint32_t kNoSeq = std::numeric_limits<std::uint32_t>::max();

/// Compile-time overlay policies of the interpreter bodies. Every drop
/// check sits behind `if constexpr (Overlay::kFaulted)`, and the pristine
/// stuck set is the constant NeverStuck, so the pristine instantiation
/// compiles to the overlay-free loop over the hop and the wave kernels.
struct Pristine {
  static constexpr bool kFaulted = false;
  NeverStuck stuck() const noexcept { return {}; }
};

struct Faulted {
  static constexpr bool kFaulted = true;
  const SimFaults& faults;

  /// Hop at which plan i's token vanishes (0 = never issued), or
  /// kCompletes.
  std::uint32_t doom(std::uint32_t i) const noexcept {
    return i < faults.lost_before_hop.size() ? faults.lost_before_hop[i]
                                             : kCompletes;
  }

  /// The hop's stuck set: a balancer past the end of `faults.stuck` is
  /// not stuck, just as a plan past the end of lost_before_hop completes.
  auto stuck() const noexcept {
    return [&stuck = faults.stuck](NodeIndex b) {
      return b < stuck.size() && stuck[b];
    };
  }
};

/// Plan-index sentinel: no plan (no token in flight).
constexpr std::uint32_t kNoPlan = std::numeric_limits<std::uint32_t>::max();

/// Empty, or the error for a plan that uses the reserved token id (the
/// step order's end-of-stream key carries it).
std::string reserved_id_error(const TimedExecution& exec) {
  for (const TokenPlan& p : exec.plans) {
    if (p.token == kNoToken) {
      return "token id " + std::to_string(kNoToken) + " is reserved";
    }
  }
  return {};
}

/// The Step that the hop is about to take for `plan`'s token on `wire`,
/// read off the route and the state before the hop moves them.
Step next_step(const CompiledNetwork& cnet, const CompiledState& state,
               WireIndex wire, const TokenPlan& plan) {
  const CompiledNetwork::Route& r = cnet.route(wire);
  Step st;
  st.process = plan.process;
  st.token = plan.token;
  st.node = r.node;
  if (r.is_sink) {
    st.kind = Step::Kind::kCounter;
    st.value = state.counter_next[r.node];
  } else {
    st.kind = Step::Kind::kBalancer;
    st.in_port = static_cast<PortIndex>(r.in_slot - cnet.in_offset(r.node));
    st.out_port = cnet.port_of(r, state.bal_through[r.node]);
  }
  return st;
}

/// The record of plan `i`'s token, which counted `v`.
TokenRecord make_record(const TimedExecution& exec, std::uint32_t i, Value v,
                        std::uint32_t fan_out, std::uint64_t first_seq,
                        std::uint64_t last_seq) {
  const TokenPlan& plan = exec.plans[i];
  TokenRecord rec;
  rec.token = plan.token;
  rec.process = plan.process;
  rec.source = plan.source;
  rec.sink = static_cast<std::uint32_t>(v % fan_out);
  rec.value = v;
  rec.t_in = exec.t_in(i);
  rec.t_out = exec.t_out(i);
  rec.first_seq = first_seq;
  rec.last_seq = last_seq;
  return rec;
}

/// One step of the canonical order: the token of plan `plan` (an index
/// into exec.plans and a row of exec.times) crosses its hop `hop`. Token
/// ids are unique, so a schedule has fewer than 2^32 plans.
struct StepRef {
  std::uint32_t plan;
  std::uint32_t hop;
};

/// Order-preserving image of a double in the unsigned integers, so the
/// merge compares and selects plain integers. -0.0 maps onto +0.0, so
/// integer order is the double order on every non-NaN value; a NaN lands
/// beyond an infinity instead of comparing unordered.
inline std::uint64_t ordered_bits(double x) noexcept {
  const auto bits = std::bit_cast<std::uint64_t>(x + 0.0);
  return bits ^ ((0 - (bits >> 63)) | (std::uint64_t{1} << 63));
}

/// A step's position in the canonical (time, rank, token, hop) order,
/// without the hop: steps of different tokens never tie on the rest, and
/// a token's own steps are ordered by construction.
struct StepKey {
  std::uint64_t time;
  std::uint64_t rank;
  TokenId token;
};

inline bool operator<(const StepKey& a, const StepKey& b) noexcept {
  return std::tie(a.time, a.rank, a.token) < std::tie(b.time, b.rank, b.token);
}

/// Sorts after every real step: real token ids are below kNoToken.
constexpr StepKey kExhausted{~std::uint64_t{0}, ~std::uint64_t{0}, kNoToken};

/// The canonical step order of a timed execution, produced as a merge of
/// per-process streams. Both interpreter bodies consume it.
///
/// A process's stream is its tokens in entry-key (t_in, rank, token)
/// order, each contributing hops 0..last (last = depth, or the drop hop
/// min(doom, depth) under an overlay). Paper Section 2.2, rule 3 says a
/// process never issues while its previous token is in flight, which is
/// exactly the condition for the stream to be sorted: each token's last
/// step sorts before the next token's entry. Merging sorted streams
/// yields every step in global order, so reset()'s O(tokens) pass that
/// builds the streams is also the step-order overlap check. A stream
/// that fails it is cut: the earlier token keeps only its steps that
/// sort before the offending entry, and the stream ends with that entry.
/// The cut stream is still sorted, so the merge reaches the offending
/// entry exactly where the global order has it, after the same prefix of
/// steps, and the scalar body raises its overlap error there.
class StepOrder {
 public:
  /// Builds the streams of `exec` (validated, token ids below
  /// kNoToken), which must outlive the steps taken. False when a stream
  /// was cut.
  template <class Overlay>
  bool reset(const TimedExecution& exec, std::uint32_t depth,
             const Overlay& ov);

  /// Steps left to produce (all of them right after reset()).
  std::size_t remaining() const noexcept { return remaining_; }

  /// Streams built by the last reset(): one per process with an issued
  /// token. Per-process state of the interpreter is indexed by stream.
  std::size_t streams() const noexcept { return streams_.size(); }

  /// Hands the next `n` steps, in canonical order, to visit(StepRef).
  /// Requires n <= remaining().
  template <class Visit>
  void take(std::size_t n, Visit&& visit) noexcept {
    StepKey* const keys = keys_.data();
    std::uint32_t* const tree = tree_.data();
    Stream* const streams = streams_.data();
    const std::size_t leaves = keys_.size();
    std::uint32_t w = tree[0];
    for (std::size_t i = 0; i < n; ++i) {
      Stream& s = streams[w];
      const StepRef head = s.head;
      keys[w] = s.next;
      // Replay the winner's root path. Only the new head's time is on
      // the dependency chain from one step to the next: it comes
      // precomputed from the stream, and each node compares times and
      // selects with masks (heads of unrelated processes order like coin
      // flips, which a branch would mispredict). The full key decides
      // exact time ties only.
      std::uint64_t wt = s.next.time;
      const std::uint32_t leaf = w;
      for (std::size_t node = (leaves + leaf) >> 1; node != 0; node >>= 1) {
        const std::uint32_t l = tree[node];
        const std::uint64_t lt = keys[l].time;
        bool loser_wins = lt < wt;
        if (lt == wt) [[unlikely]] loser_wins = keys[l] < keys[w];
        const std::uint64_t mask = 0 - std::uint64_t{loser_wins};
        const auto mask32 = static_cast<std::uint32_t>(mask);
        tree[node] = l ^ ((l ^ w) & mask32);
        w ^= (w ^ l) & mask32;
        wt ^= (wt ^ lt) & mask;
      }
      advance(streams[leaf]);
      visit(head);
    }
    tree[0] = w;
    remaining_ -= n;
  }

  /// The next step; `stream` receives the index of its process's stream.
  StepRef next(std::uint32_t& stream) noexcept {
    stream = tree_[0];
    StepRef s{};
    take(1, [&s](StepRef step) { s = step; });
    return s;
  }

 private:
  struct Entry {
    std::uint32_t plan;
    std::uint32_t last;  ///< Last hop this token contributes.
  };
  /// A stream's head step, plus a lookahead: the key and position of
  /// the step after it, so a head that wins is replaced without a load
  /// from the plans on the merge's critical path.
  struct Stream {
    StepRef head;
    StepKey next;        ///< kExhausted past the stream's end.
    const Entry* entry;  ///< Token of `next`.
    const Entry* end;
    const double* row;   ///< Crossing times of `entry`'s plan.
    std::uint32_t hop;   ///< Hop of `next`.
  };

  const double* row_of(std::uint32_t plan) const noexcept {
    return times_ + std::size_t{plan} * stride_;
  }

  StepKey key_of(std::uint32_t plan, std::uint32_t hop) const noexcept {
    return {ordered_bits(row_of(plan)[hop]), ordered_bits(plans_[plan].rank),
            plans_[plan].token};
  }

  /// Moves the stream's head to its lookahead and looks one step further.
  void advance(Stream& s) const noexcept {
    if (s.entry == s.end) {
      s.next = kExhausted;
      return;
    }
    s.head = {s.entry->plan, s.hop};
    if (s.hop != s.entry->last) {
      s.next.time = ordered_bits(s.row[++s.hop]);
    } else if (++s.entry != s.end) {
      s.hop = 0;
      s.row = row_of(s.entry->plan);
      s.next = key_of(s.entry->plan, 0);
    } else {
      s.next = kExhausted;
    }
  }

  /// Loser tree over the stream heads: tree_[0] holds the winner (the
  /// minimum head), tree_[n] the loser of internal node n, and leaf i
  /// sits at position keys_.size() + i. Fills the internal nodes under
  /// `n` and returns the subtree's winner.
  std::uint32_t build(std::size_t n) noexcept {
    if (n >= keys_.size()) return static_cast<std::uint32_t>(n - keys_.size());
    const std::uint32_t a = build(2 * n);
    const std::uint32_t b = build(2 * n + 1);
    const bool b_wins = keys_[b] < keys_[a];
    tree_[n] = b_wins ? a : b;
    return b_wins ? b : a;
  }

  const TokenPlan* plans_ = nullptr;  ///< The last reset()'s schedule.
  const double* times_ = nullptr;
  std::size_t stride_ = 0;
  IdSlots processes_;  ///< Slot (and stream) of each issuing process.
  std::vector<std::uint32_t> slot_of_plan_;  ///< Issued plans' slots.
  std::vector<std::uint32_t> start_;  ///< Per-slot entry offsets.
  std::vector<Entry> entries_;        ///< Issued plans, by slot.
  std::vector<Stream> streams_;       ///< One per slot.
  std::vector<StepKey> keys_;         ///< Head key per leaf (padded).
  std::vector<std::uint32_t> tree_;
  std::size_t remaining_ = 0;
};

template <class Overlay>
bool StepOrder::reset(const TimedExecution& exec, std::uint32_t depth,
                      const Overlay& ov) {
  // Counting sort of the issued plans by process, stable in plan order.
  // Each process with an issued token gets a slot, numbered by first
  // appearance (IdSlots), so nothing here grows with the largest process
  // id. Counting slot s at s + 2 leaves start_[s + 1] at s's first entry
  // after the prefix sum; the scatter advances it to s's end, so
  // afterwards start_[s] and start_[s + 1] bound slot s.
  plans_ = exec.plans.data();
  times_ = exec.times.data();
  stride_ = std::size_t{depth} + 1;
  processes_.clear();
  slot_of_plan_.resize(exec.plans.size());
  start_.assign(2, 0);
  std::size_t issued = 0;
  for (std::uint32_t i = 0; i < exec.plans.size(); ++i) {
    const TokenPlan& p = exec.plans[i];
    if constexpr (Overlay::kFaulted) {
      if (ov.doom(i) == 0) continue;  // never issued
    }
    const std::uint32_t slot = processes_.slot(p.process);
    if (slot + 2 == start_.size()) start_.push_back(0);  // a new process
    ++start_[slot + 2];
    slot_of_plan_[i] = slot;
    ++issued;
  }
  for (std::size_t i = 2; i < start_.size(); ++i) start_[i] += start_[i - 1];
  entries_.resize(issued);
  for (std::uint32_t i = 0; i < exec.plans.size(); ++i) {
    std::uint32_t last = depth;
    if constexpr (Overlay::kFaulted) {
      const std::uint32_t doom = ov.doom(i);
      if (doom == 0) continue;
      last = std::min(doom, depth);
    }
    entries_[start_[slot_of_plan_[i] + 1]++] = {i, last};
  }

  bool whole = true;
  streams_.clear();
  remaining_ = 0;
  const auto entry_less = [this](const Entry& a, const Entry& b) {
    return key_of(a.plan, 0) < key_of(b.plan, 0);
  };
  for (std::size_t slot = 0; slot < processes_.size(); ++slot) {
    Entry* const begin = entries_.data() + start_[slot];
    Entry* end = entries_.data() + start_[slot + 1];
    // One comparison per consecutive pair: the token's last step sorts
    // before the next token's entry. A token's entry never sorts after
    // its own last step, so passing it everywhere shows the stream both
    // sorted and overlap-free. Only a stream that fails it is sorted and
    // scanned for its cut.
    const Entry* a = begin;
    while (a + 1 != end && key_of(a->plan, a->last) < key_of(a[1].plan, 0)) {
      ++a;
    }
    if (a + 1 != end) {
      if (!std::is_sorted(begin, end, entry_less)) {
        std::sort(begin, end, entry_less);
      }
      for (Entry* b = begin; b + 1 != end; ++b) {
        const StepKey next_entry = key_of(b[1].plan, 0);
        if (key_of(b->plan, b->last) < next_entry) continue;
        // Step-order overlap: b[1] enters while b is in flight. Cut the
        // stream at that entry (b's hop 0 always sorts before it).
        std::uint32_t keep = 0;
        while (key_of(b->plan, keep + 1) < next_entry) ++keep;
        b->last = keep;
        b[1].last = 0;
        end = b + 2;
        whole = false;
        break;
      }
    }
    for (const Entry* e = begin; e != end; ++e) remaining_ += e->last + 1;
    streams_.push_back({.next = key_of(begin->plan, 0),
                        .entry = begin,
                        .end = end,
                        .row = row_of(begin->plan),
                        .hop = 0});
  }

  const std::size_t leaves = std::bit_ceil(std::max<std::size_t>(
      streams_.size(), 1));
  keys_.assign(leaves, kExhausted);
  tree_.assign(leaves, 0);
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    keys_[i] = streams_[i].next;
    advance(streams_[i]);
  }
  tree_[0] = build(1);
  return whole;
}

}  // namespace

/// Per-call buffers, kept allocated across calls.
struct SimArena::Scratch {
  StepOrder steps;  ///< The canonical step order, both bodies.
  /// Per-token state is indexed by plan, never by token id: its size is
  /// the schedule's, however large the ids.
  std::vector<TokenRecord> records;  ///< Collect mode, per plan.
  std::vector<WireIndex> wire_of;    ///< Current wire per plan.
  /// Scalar mode, per process, indexed by its StepOrder stream: the
  /// in-flight token's plan, and (streaming) its first_seq and issue
  /// slot — the only per-token state that must survive from entry to
  /// exit.
  std::vector<std::uint32_t> in_flight_of_stream;
  std::vector<std::uint64_t> first_seq_of_stream;
  std::vector<std::uint64_t> pos_of_stream;
  IssueWindowBuffer window;  ///< Ring reused across calls.
  // --- wave mode ---------------------------------------------------------
  /// The chunk's steps by level: kWaveChunk (plan, seq offset) entries,
  /// stored as the plans of every bucket, then their seq offsets, so a
  /// bucket's plans are one span for the wave kernels.
  std::vector<std::uint32_t> bucket;
  std::vector<std::uint32_t> bucket_size;  ///< Steps per level.
  /// Wave streaming keeps first_seq and issue slot per TOKEN (plan), not
  /// per process: inside one chunk a process's next issue is processed
  /// (level 0) before its previous token's completion or drop (level
  /// >= 1), so a per-process slot would be overwritten too early.
  std::vector<std::uint64_t> first_seq_of_plan;
  std::vector<std::uint64_t> pos_of_plan;
};

SimArena::SimArena() : scratch_(std::make_unique<Scratch>()) {}
SimArena::~SimArena() = default;
SimArena::SimArena(SimArena&&) noexcept = default;
SimArena& SimArena::operator=(SimArena&&) noexcept = default;

void SimArena::acquire(const Network& net) {
  // Cached by address; the shape check catches the (unlikely) case of a
  // different Network later living at the same address. Identical name
  // and shape means an identical construction, hence identical tables.
  if (net_ == &net && compiled_ != nullptr &&
      compiled_->num_wires() == net.num_wires() &&
      compiled_->num_balancers() == net.num_balancers() &&
      compiled_->fan_in() == net.fan_in() &&
      compiled_->fan_out() == net.fan_out()) {
    state_->reset();
    return;
  }
  compiled_ = std::make_unique<const CompiledNetwork>(net);
  state_ = std::make_unique<CompiledState>(*compiled_);
  net_ = &net;
}

/// The interpreter bodies: one per execution model, each instantiated
/// once per overlay policy.
struct SimInterpreter {
  template <class Overlay>
  static SimulationResult scalar(const TimedExecution& exec, SimArena& arena,
                                 const Overlay& ov, bool record_steps,
                                 TraceSink* sink);
  template <class Overlay>
  static SimulationResult wave(const TimedExecution& exec, SimArena& arena,
                               const Overlay& ov, TraceSink* sink);

  /// End of a run: the collect path assembles the trace in plan order
  /// (skipping tokens the overlay removed), the streaming path flushes.
  template <class Overlay>
  static void finish(const TimedExecution& exec, SimArena::Scratch& scr,
                     const Overlay& ov, TraceSink* sink,
                     SimulationResult& result) {
    if (sink != nullptr) {
      scr.window.flush();
      return;
    }
    if constexpr (Overlay::kFaulted) {
      // A successful run completes exactly the tokens whose drop hop
      // lies past the counter crossing.
      const std::uint32_t d = exec.net->depth();
      result.trace.reserve(exec.plans.size());
      for (std::uint32_t i = 0; i < exec.plans.size(); ++i) {
        if (ov.doom(i) > d) {
          result.trace.push_back(scr.records[i]);
        }
      }
    } else {
      result.trace.assign(scr.records.begin(), scr.records.end());
    }
  }
};

template <class Overlay>
SimulationResult SimInterpreter::scalar(const TimedExecution& exec,
                                        SimArena& arena, const Overlay& ov,
                                        bool record_steps, TraceSink* sink) {
  SimulationResult result;
  result.error = validate(exec);
  if (!result.error.empty()) return result;

  const Network& net = *exec.net;
  arena.acquire(net);
  const CompiledNetwork& cnet = *arena.compiled_;
  CompiledState& state = *arena.state_;
  SimArena::Scratch& scr = *arena.scratch_;
  result.error = reserved_id_error(exec);
  if (!result.error.empty()) return result;

  // Paper Section 2.2, rule 3: all steps of a process's token must
  // precede all steps of its next token IN THE STEP SEQUENCE. Equal times
  // with adverse ranks could interleave them, so track in-flight tokens
  // per process and reject such schedules. (The step order ends right at
  // the first such entry; see StepOrder.)
  scr.steps.reset(exec, net.depth(), ov);
  const std::size_t streams = scr.steps.streams();
  scr.in_flight_of_stream.assign(streams, kNoPlan);
  // Streaming runs emit records as tokens exit; only the collect path
  // materializes the O(tokens) records array. Completions happen in seq
  // order, but the sink contract is issue order, so they pass through a
  // reorder window bounded by the open-token concurrency (first_seqs
  // come from the incrementing `seq`, so the monotone-producer
  // contract of IssueWindowBuffer holds).
  if (sink == nullptr) {
    scr.records.assign(exec.plans.size(), TokenRecord{});
  } else {
    scr.first_seq_of_stream.assign(streams, 0);
    scr.pos_of_stream.assign(streams, 0);
    scr.window.reset(*sink, /*deferred=*/false);
  }
  scr.wire_of.assign(exec.plans.size(), kInvalidWire);
  const std::size_t stride = exec.stride();
  std::vector<Step> log;  // simulate_recorded's, kept only on success

  std::uint64_t seq = 0;
  while (scr.steps.remaining() != 0) {
    std::uint32_t stream = 0;
    const StepRef ev = scr.steps.next(stream);
    const TokenPlan& plan = exec.plans[ev.plan];
    if constexpr (Overlay::kFaulted) {
      // The token vanishes at the planned time of its first unexecuted
      // hop: no transition, no seq; its process becomes free to issue
      // again. (hop > 0 always: never-issued tokens have no steps, so a
      // vanishing token has an open issue slot to drop.)
      if (ev.hop == ov.doom(ev.plan)) {
        scr.in_flight_of_stream[stream] = kNoPlan;
        if (sink != nullptr) scr.window.drop(scr.pos_of_stream[stream]);
        continue;
      }
    }
    WireIndex& wire = scr.wire_of[ev.plan];
    if (ev.hop == 0) {
      std::uint32_t& slot = scr.in_flight_of_stream[stream];
      if (slot != kNoPlan) {
        result.error = "process " + std::to_string(plan.process) +
                       " issued token " + std::to_string(plan.token) +
                       " while token " +
                       std::to_string(exec.plans[slot].token) +
                       " was still in flight (step-order overlap)";
        return result;
      }
      slot = ev.plan;
      wire = cnet.source_wire(plan.source);
      ++state.source_count[plan.source];
      if (sink == nullptr) {
        scr.records[ev.plan].first_seq = seq;
      } else {
        scr.first_seq_of_stream[stream] = seq;
        scr.pos_of_stream[stream] = scr.window.open();
      }
    }
    if (record_steps) log.push_back(next_step(cnet, state, wire, plan));
    Value v = 0;
    const bool finished = step_token(cnet, state, wire, v, ov.stuck());
    ++seq;
    if (finished) {
      scr.in_flight_of_stream[stream] = kNoPlan;
      if (ev.hop != net.depth()) {
        result.error = "token " + std::to_string(plan.token) +
                       " reached a counter after " + std::to_string(ev.hop) +
                       " hops; network is not uniform";
        return result;
      }
      if (sink == nullptr) {
        TokenRecord& rec = scr.records[ev.plan];
        rec = make_record(exec, ev.plan, v, cnet.fan_out(), rec.first_seq,
                          seq - 1);
      } else {
        scr.window.close(scr.pos_of_stream[stream],
                         make_record(exec, ev.plan, v, cnet.fan_out(),
                                     scr.first_seq_of_stream[stream],
                                     seq - 1));
      }
    } else if (ev.hop + 1 >= stride) {
      result.error = "token " + std::to_string(plan.token) +
                     " still in flight after its last planned step; "
                     "network is not uniform";
      return result;
    }
  }

  finish(exec, scr, ov, sink, result);
  result.steps = std::move(log);
  return result;
}

template <class Overlay>
SimulationResult SimInterpreter::wave(const TimedExecution& exec,
                                      SimArena& arena, const Overlay& ov,
                                      TraceSink* sink) {
  SimulationResult result;
  result.error = validate(exec);
  if (!result.error.empty()) return result;

  const Network& net = *exec.net;
  if (!net.uniform()) {
    // The scalar interpreter is the executable spec, including its
    // dynamic non-uniformity errors (and any sink prefix emitted before
    // the error): run it wholesale.
    return scalar(exec, arena, ov, /*record_steps=*/false, sink);
  }
  arena.acquire(net);
  const std::uint32_t d = net.depth();

  SimArena::Scratch& scr = *arena.scratch_;
  result.error = reserved_id_error(exec);
  if (!result.error.empty()) return result;

  // The canonical step order, the same one the scalar body consumes. A
  // cut stream means a step-order overlap (paper Section 2.2, rule 3):
  // the scalar body raises it, after the identical partial sink
  // emission, so hand the run to it.
  if (!scr.steps.reset(exec, d, ov)) {
    return scalar(exec, arena, ov, /*record_steps=*/false, sink);
  }

  const std::size_t plans = exec.plans.size();
  if (sink == nullptr) {
    scr.records.assign(plans, TokenRecord{});
  } else {
    scr.first_seq_of_plan.assign(plans, 0);
    scr.pos_of_plan.assign(plans, 0);
    scr.window.reset(*sink, /*deferred=*/true);
  }
  scr.wire_of.assign(plans, kInvalidWire);

  const CompiledNetwork& cnet = *arena.compiled_;
  CompiledState& state = *arena.state_;
  const std::uint32_t fan_out = cnet.fan_out();

  // One bucket per level (= hop, for a uniform network) of `cap` entries.
  const std::size_t levels = std::size_t{d} + 1;
  const std::size_t cap = std::max<std::size_t>(kWaveChunk / levels, 1);
  scr.bucket.resize(2 * levels * cap);
  scr.bucket_size.assign(levels, 0);
  std::uint32_t* const plan_at = scr.bucket.data();
  std::uint32_t* const seq_at = plan_at + levels * cap;
  std::uint32_t* const size = scr.bucket_size.data();

  // Entry and exit bookkeeping. Level 0's bucket holds a chunk's hop-0
  // steps in canonical order, so opens arrive in first_seq order.
  const auto enter = [&](std::uint32_t plan, std::uint64_t seq) {
    const std::uint32_t source = exec.plans[plan].source;
    scr.wire_of[plan] = cnet.source_wire(source);
    ++state.source_count[source];
    if (sink == nullptr) {
      scr.records[plan].first_seq = seq;
    } else {
      scr.first_seq_of_plan[plan] = seq;
      scr.pos_of_plan[plan] = scr.window.open();
    }
  };
  const auto leave = [&](std::uint32_t plan, Value v, std::uint64_t seq) {
    if (sink == nullptr) {
      scr.records[plan] = make_record(exec, plan, v, fan_out,
                                      scr.records[plan].first_seq, seq);
    } else {
      scr.window.close(scr.pos_of_plan[plan],
                       make_record(exec, plan, v, fan_out,
                                   scr.first_seq_of_plan[plan], seq));
    }
  };

  std::uint64_t base = 0;  // Seq of the chunk's first sequenced step.
  std::size_t undrained = 0;  // Steps since the window last drained.
  while (scr.steps.remaining() != 0) {
    const std::size_t n = std::min(cap, scr.steps.remaining());
    // The merge appends each step of the chunk to its level's bucket and
    // draws its seq: its canonical index, except that an overlay's drop
    // step draws none, exactly like the scalar loop's skipped increment.
    // A balancer lives at exactly one level, so its bucket keeps its
    // arrival order; hop h's bucket runs before hop h+1's, so a token's
    // own steps stay ordered.
    std::uint32_t offset = 0;
    scr.steps.take(n, [&](StepRef s) {
      const std::size_t at = s.hop * cap + size[s.hop]++;
      plan_at[at] = s.plan;
      if constexpr (Overlay::kFaulted) {
        if (s.hop == ov.doom(s.plan)) {
          seq_at[at] = kNoSeq;
          return;
        }
      }
      seq_at[at] = offset++;
    });

    for (std::uint32_t lvl = 0; lvl <= d; ++lvl) {
      const std::span<const std::uint32_t> level_plans(plan_at + lvl * cap,
                                                       size[lvl]);
      const std::uint32_t* const seqs = seq_at + lvl * cap;
      size[lvl] = 0;
      if constexpr (Overlay::kFaulted) {
        // Token by token through the hop, which skips stuck toggles. A
        // drop resolves its issue slot; emission eligibility is
        // reconciled at the next deferred drain, so call order against
        // other levels is immaterial.
        for (std::size_t k = 0; k < level_plans.size(); ++k) {
          const std::uint32_t plan = level_plans[k];
          if (seqs[k] == kNoSeq) {
            if (sink != nullptr) scr.window.drop(scr.pos_of_plan[plan]);
            continue;
          }
          if (lvl == 0) enter(plan, base + seqs[k]);
          Value v = 0;
          if (step_token(cnet, state, scr.wire_of[plan], v, ov.stuck())) {
            leave(plan, v, base + seqs[k]);
          }
        }
      } else {
        if (lvl == 0) {
          for (std::size_t k = 0; k < level_plans.size(); ++k) {
            enter(level_plans[k], base + seqs[k]);
          }
        }
        if (lvl < d) {
          step_wave(cnet, state, level_plans, scr.wire_of);
        } else {
          step_wave_counters(cnet, state, level_plans, scr.wire_of,
                             [&](std::size_t k, Value v) {
                               leave(level_plans[k], v, base + seqs[k]);
                             });
        }
      }
    }
    // The sink's batches stay kWaveChunk steps long however short the
    // chunks are: the window drains once per kWaveChunk steps.
    undrained += n;
    if (sink != nullptr && undrained >= kWaveChunk) {
      scr.window.drain();
      undrained = 0;
    }
    base += offset;
  }

  finish(exec, scr, ov, sink, result);
  return result;
}

SimulationResult simulate(const TimedExecution& exec) {
  SimArena arena;
  return SimInterpreter::scalar(exec, arena, Pristine{}, false, nullptr);
}

SimulationResult simulate(const TimedExecution& exec, SimArena& arena) {
  return SimInterpreter::scalar(exec, arena, Pristine{}, false, nullptr);
}

SimulationResult simulate_recorded(const TimedExecution& exec) {
  SimArena arena;
  return SimInterpreter::scalar(exec, arena, Pristine{}, true, nullptr);
}

SimulationResult simulate_stream(const TimedExecution& exec, SimArena& arena,
                                 TraceSink& sink) {
  return SimInterpreter::scalar(exec, arena, Pristine{}, false, &sink);
}

SimulationResult simulate_wave(const TimedExecution& exec, SimArena& arena) {
  return SimInterpreter::wave(exec, arena, Pristine{}, nullptr);
}

SimulationResult simulate_wave_stream(const TimedExecution& exec,
                                      SimArena& arena, TraceSink& sink) {
  return SimInterpreter::wave(exec, arena, Pristine{}, &sink);
}

SimulationResult simulate(const TimedExecution& exec, const SimFaults& faults,
                          SimArena& arena) {
  return SimInterpreter::scalar(exec, arena, Faulted{faults}, false, nullptr);
}

SimulationResult simulate_stream(const TimedExecution& exec,
                                 const SimFaults& faults, SimArena& arena,
                                 TraceSink& sink) {
  return SimInterpreter::scalar(exec, arena, Faulted{faults}, false, &sink);
}

SimulationResult simulate_wave(const TimedExecution& exec,
                               const SimFaults& faults, SimArena& arena) {
  return SimInterpreter::wave(exec, arena, Faulted{faults}, nullptr);
}

SimulationResult simulate_wave_stream(const TimedExecution& exec,
                                      const SimFaults& faults,
                                      SimArena& arena, TraceSink& sink) {
  return SimInterpreter::wave(exec, arena, Faulted{faults}, &sink);
}

}  // namespace cn
