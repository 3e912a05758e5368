#include "sim/simulator.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

#include "core/wave.hpp"

namespace cn {

namespace {

struct Event {
  double time;
  double rank;
  TokenId token;
  std::uint32_t hop;  ///< Which layer crossing this is (0-based).

  bool operator>(const Event& o) const {
    if (time != o.time) return time > o.time;
    if (rank != o.rank) return rank > o.rank;
    return token > o.token;
  }
};

/// Min-heap comparator: std::push_heap/pop_heap build a max-heap with
/// respect to the comparator, so "greater" puts the earliest (time, rank,
/// token) event on top. The comparator is a total order over any set of
/// pending events (at most one event per token is pending), so the pop
/// sequence is unique regardless of heap internals.
constexpr auto event_after = [](const Event& a, const Event& b) { return a > b; };

constexpr TokenId kNoToken = std::numeric_limits<TokenId>::max();

/// Wave mode pre-sorts the complete event list instead of heaping pending
/// events; `hop` joins the sort key as the final tie-break so the sorted
/// order equals the scalar heap's pop order (see simulate_wave's header
/// comment).
struct WaveEvent {
  double time;
  double rank;
  TokenId token;
  std::uint32_t hop;
};

constexpr auto wave_event_less = [](const WaveEvent& a, const WaveEvent& b) {
  if (a.time != b.time) return a.time < b.time;
  if (a.rank != b.rank) return a.rank < b.rank;
  if (a.token != b.token) return a.token < b.token;
  return a.hop < b.hop;
};

/// Chunk of the canonical event order processed per wave round. Large
/// enough to amortize the per-chunk bucket pass and sink batch, small
/// enough that the chunk's cursors stay cache-resident.
constexpr std::size_t kWaveChunk = 4096;

/// Compile-time overlay policies of the interpreter bodies. Every
/// overlay check sits behind `if constexpr (Overlay::kFaulted)`, so the
/// pristine instantiation compiles to the overlay-free loop over the
/// NetworkState / wave kernels.
struct Pristine {
  static constexpr bool kFaulted = false;
};

struct Faulted {
  static constexpr bool kFaulted = true;
  const SimFaults& faults;

  /// Hop at which token t vanishes (0 = never issued), or kCompletes.
  std::uint32_t doom(TokenId t) const noexcept {
    return t < faults.lost_before_hop.size() ? faults.lost_before_hop[t]
                                             : kCompletes;
  }
};

/// The largest token and process ids of `exec`; false (with `error` set)
/// when a plan uses the reserved token id.
bool id_bounds(const TimedExecution& exec, TokenId& max_token,
               ProcessId& max_process, std::string& error) {
  max_token = 0;
  max_process = 0;
  for (const TokenPlan& p : exec.plans) {
    if (p.token == kNoToken) {
      error = "token id " + std::to_string(kNoToken) + " is reserved";
      return false;
    }
    max_token = std::max(max_token, p.token);
    max_process = std::max(max_process, p.process);
  }
  return true;
}

TokenRecord make_record(const TokenPlan& plan, Value v, std::uint32_t fan_out,
                        std::uint64_t first_seq, std::uint64_t last_seq) {
  TokenRecord rec;
  rec.token = plan.token;
  rec.process = plan.process;
  rec.source = plan.source;
  rec.sink = static_cast<std::uint32_t>(v % fan_out);
  rec.value = v;
  rec.t_in = plan.t_in();
  rec.t_out = plan.t_out();
  rec.first_seq = first_seq;
  rec.last_seq = last_seq;
  return rec;
}

}  // namespace

/// Per-call buffers, kept allocated across calls.
struct SimArena::Scratch {
  std::vector<Event> heap;
  std::vector<const TokenPlan*> plan_of;
  std::vector<TokenRecord> records;
  std::vector<TokenId> in_flight_of_process;
  /// Streaming mode: first_seq and issue slot of each process's
  /// in-flight token — the only per-token state that must survive from
  /// entry to exit.
  std::vector<std::uint64_t> first_seq_of_process;
  std::vector<std::uint64_t> pos_of_process;
  IssueWindowBuffer window;  ///< Ring reused across calls.
  std::vector<WireIndex> wire_of;  ///< Current wire per token.
  // --- wave mode ---------------------------------------------------------
  std::vector<WaveEvent> events;            ///< All steps, canonical order.
  std::vector<std::uint32_t> bucket_start;  ///< Per-level chunk offsets.
  std::vector<std::uint32_t> bucket_pos;    ///< Scatter cursor per level.
  std::vector<std::uint32_t> order;         ///< Chunk indices by level.
  /// Wave streaming keeps first_seq and issue slot per TOKEN, not per
  /// process: inside one chunk a process's next issue is processed
  /// (level 0) before its previous token's completion or drop (level
  /// >= 1), so a per-process slot would be overwritten too early.
  /// O(max token id) scratch, arena-reused.
  std::vector<std::uint64_t> first_seq_of_token;
  std::vector<std::uint64_t> pos_of_token;
  std::vector<TokenCursor> cursors;         ///< One wave's gather buffer.
  std::vector<Value> values;                ///< Counter-wave results.
  // --- fault overlay -----------------------------------------------------
  /// Explicit round-robin position per balancer: a stuck balancer freezes
  /// its position, which CompiledState's throughput encoding cannot
  /// express.
  std::vector<PortIndex> balancer_pos;
  std::vector<Value> counter_next;          ///< Next value per sink.
  std::vector<std::uint64_t> seq_of;        ///< Wave: seq per chunk event.

  void reset_overlay(const CompiledNetwork& cnet) {
    balancer_pos.assign(cnet.num_balancers(), 0);
    counter_next.resize(cnet.fan_out());
    for (std::uint32_t j = 0; j < cnet.fan_out(); ++j) counter_next[j] = j;
  }

  /// The overlay's step, shared by both interpreter bodies: advances the
  /// token on `wire` across one node of the compiled routes. A balancer
  /// hop leaves through the explicit position, advancing it unless the
  /// balancer is stuck; a counter crossing stores the counted value in
  /// `v` and returns true.
  bool overlay_step(const CompiledNetwork& cnet, const std::vector<bool>& stuck,
                    WireIndex& wire, Value& v) {
    const CompiledNetwork::Route& r = cnet.route(wire);
    if (r.is_sink) {
      v = counter_next[r.node];
      counter_next[r.node] += cnet.fan_out();
      return true;
    }
    const PortIndex out = balancer_pos[r.node];
    if (!stuck[r.node]) {
      balancer_pos[r.node] =
          static_cast<PortIndex>((out + 1) % cnet.balancer_fan_out(r.node));
    }
    wire = cnet.out_wire_at(r.out_base + out);
    return false;
  }
};

SimArena::SimArena() : scratch_(std::make_unique<Scratch>()) {}
SimArena::~SimArena() = default;
SimArena::SimArena(SimArena&&) noexcept = default;
SimArena& SimArena::operator=(SimArena&&) noexcept = default;

void SimArena::acquire_wave(const Network& net) {
  acquire(net);
  if (wave_plan_ == nullptr || &wave_plan_->compiled() != compiled_.get()) {
    wave_plan_ = std::make_unique<WavePlan>(*compiled_);
    wave_state_ = std::make_unique<CompiledState>(*compiled_);
  } else {
    wave_state_->reset();
  }
}

NetworkState& SimArena::acquire(const Network& net) {
  // Cached by address; the shape check catches the (unlikely) case of a
  // different Network later living at the same address. Identical name
  // and shape means an identical construction, hence identical tables.
  if (net_ == &net && compiled_ != nullptr &&
      compiled_->num_wires() == net.num_wires() &&
      compiled_->num_balancers() == net.num_balancers() &&
      compiled_->fan_in() == net.fan_in() &&
      compiled_->fan_out() == net.fan_out()) {
    state_->reset();
    return *state_;
  }
  compiled_ = std::make_shared<const CompiledNetwork>(net);
  state_ = std::make_unique<NetworkState>(compiled_);
  net_ = &net;
  return *state_;
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
    const std::uint32_t d = exec.net->depth();
    result.trace.reserve(exec.plans.size());
    for (const TokenPlan& p : exec.plans) {
      if constexpr (Overlay::kFaulted) {
        // A successful run completes exactly the tokens whose drop hop
        // lies past the counter crossing.
        if (ov.doom(p.token) <= d) continue;
      }
      result.trace.push_back(scr.records[p.token]);
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
  NetworkState& state = arena.acquire(net);
  state.set_recording(record_steps);
  const CompiledNetwork& cnet = *arena.compiled_;
  SimArena::Scratch& scr = *arena.scratch_;
  TokenId max_token = 0;
  ProcessId max_process = 0;
  if (!id_bounds(exec, max_token, max_process, result.error)) return result;

  scr.plan_of.assign(max_token + 1, nullptr);
  // Streaming runs emit records as tokens exit; only the collect path
  // materializes the O(tokens) records array. Completions happen in seq
  // order, but the sink contract is issue order, so they pass through a
  // reorder window bounded by the open-token concurrency (first_seqs
  // come from the incrementing `seq`, so the monotone-producer
  // contract of IssueWindowBuffer holds).
  if (sink == nullptr) {
    scr.records.assign(max_token + 1, TokenRecord{});
  } else {
    scr.first_seq_of_process.assign(max_process + 1, 0);
    scr.pos_of_process.assign(max_process + 1, 0);
    scr.window.reset(*sink, /*deferred=*/false);
  }
  if constexpr (Overlay::kFaulted) {
    scr.wire_of.assign(max_token + 1, kInvalidWire);
    scr.reset_overlay(cnet);
  }
  // Paper Section 2.2, rule 3: all steps of a process's token must
  // precede all steps of its next token IN THE STEP SEQUENCE. Equal times
  // with adverse ranks could interleave them, so track in-flight tokens
  // per process and reject such schedules.
  scr.in_flight_of_process.assign(max_process + 1, kNoToken);
  scr.heap.clear();
  scr.heap.reserve(exec.plans.size());
  for (const TokenPlan& p : exec.plans) {
    scr.plan_of[p.token] = &p;
    if constexpr (Overlay::kFaulted) {
      if (ov.doom(p.token) == 0) continue;  // never issued
    }
    scr.heap.push_back({p.times[0], p.rank, p.token, 0});
  }
  std::make_heap(scr.heap.begin(), scr.heap.end(), event_after);

  std::uint64_t seq = 0;
  while (!scr.heap.empty()) {
    std::pop_heap(scr.heap.begin(), scr.heap.end(), event_after);
    const Event ev = scr.heap.back();
    scr.heap.pop_back();
    const TokenPlan& plan = *scr.plan_of[ev.token];
    if constexpr (Overlay::kFaulted) {
      // The token vanishes at the planned time of its first unexecuted
      // hop: no transition, no seq; its process becomes free to issue
      // again. (hop > 0 always: never-issued tokens were never pushed, so
      // a vanishing token has an open issue slot to drop.)
      if (ev.hop == ov.doom(ev.token)) {
        scr.in_flight_of_process[plan.process] = kNoToken;
        if (sink != nullptr) scr.window.drop(scr.pos_of_process[plan.process]);
        continue;
      }
    }
    if (ev.hop == 0) {
      TokenId& slot = scr.in_flight_of_process[plan.process];
      if (slot != kNoToken) {
        result.error = "process " + std::to_string(plan.process) +
                       " issued token " + std::to_string(plan.token) +
                       " while token " + std::to_string(slot) +
                       " was still in flight (step-order overlap)";
        return result;
      }
      slot = plan.token;
      if constexpr (Overlay::kFaulted) {
        scr.wire_of[ev.token] = cnet.source_wire(plan.source);
      } else {
        state.enter(plan.token, plan.process, plan.source);
      }
      if (sink == nullptr) {
        scr.records[ev.token].first_seq = seq;
      } else {
        scr.first_seq_of_process[plan.process] = seq;
        scr.pos_of_process[plan.process] = scr.window.open();
      }
    }
    Value v = 0;
    bool finished = false;
    if constexpr (Overlay::kFaulted) {
      finished =
          scr.overlay_step(cnet, ov.faults.stuck, scr.wire_of[ev.token], v);
    } else {
      finished = state.step_fast(plan.token);
      if (finished) v = state.value(plan.token);
    }
    ++seq;
    if (finished) {
      scr.in_flight_of_process[plan.process] = kNoToken;
      if (ev.hop != net.depth()) {
        result.error = "token " + std::to_string(plan.token) +
                       " reached a counter after " + std::to_string(ev.hop) +
                       " hops; network is not uniform";
        return result;
      }
      if (sink == nullptr) {
        TokenRecord& rec = scr.records[ev.token];
        rec = make_record(plan, v, cnet.fan_out(), rec.first_seq, seq - 1);
      } else {
        scr.window.close(scr.pos_of_process[plan.process],
                         make_record(plan, v, cnet.fan_out(),
                                     scr.first_seq_of_process[plan.process],
                                     seq - 1));
      }
    } else {
      if (ev.hop + 1 >= plan.times.size()) {
        result.error = "token " + std::to_string(plan.token) +
                       " still in flight after its last planned step; "
                       "network is not uniform";
        return result;
      }
      scr.heap.push_back({plan.times[ev.hop + 1], plan.rank, plan.token,
                          ev.hop + 1});
      std::push_heap(scr.heap.begin(), scr.heap.end(), event_after);
    }
  }

  finish(exec, scr, ov, sink, result);
  if (record_steps) result.steps = state.log();
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
  arena.acquire_wave(net);
  const std::uint32_t d = net.depth();
  if (!arena.wave_plan_->uniform() || arena.wave_plan_->depth() != d) {
    // The scalar interpreter is the executable spec, including its
    // dynamic non-uniformity errors (and any sink prefix emitted before
    // the error): run it wholesale.
    return scalar(exec, arena, ov, /*record_steps=*/false, sink);
  }

  SimArena::Scratch& scr = *arena.scratch_;
  TokenId max_token = 0;
  ProcessId max_process = 0;
  if (!id_bounds(exec, max_token, max_process, result.error)) return result;

  // The canonical event order: one global sort replaces the heap. The
  // scalar pop order is exactly this order — at every pop the heap holds
  // each unfinished token's earliest unprocessed event, and a successor
  // event never sorts before its predecessor (times are non-decreasing
  // per plan; `hop` breaks the equal-time case), so the minimum over
  // pending events is the minimum over all unprocessed events. An
  // overlay is folded in here: never-issued tokens contribute nothing,
  // and a doomed token's events stop at its drop hop.
  scr.plan_of.assign(max_token + 1, nullptr);
  scr.events.clear();
  scr.events.reserve(exec.plans.size() * (d + 1));
  for (const TokenPlan& p : exec.plans) {
    scr.plan_of[p.token] = &p;
    std::uint32_t last = d;
    if constexpr (Overlay::kFaulted) {
      const std::uint32_t doom = ov.doom(p.token);
      if (doom == 0) continue;  // never issued
      last = std::min(doom, d);
    }
    for (std::uint32_t h = 0; h <= last; ++h) {
      scr.events.push_back({p.times[h], p.rank, p.token, h});
    }
  }
  std::sort(scr.events.begin(), scr.events.end(), wave_event_less);

  // Paper Section 2.2, rule 3 (step-order overlap): decided up front over
  // the canonical order — the same slot transitions in the same order the
  // scalar loop performs them. A rejected schedule falls back to the
  // scalar interpreter so the error text and any partial sink emission
  // match exactly.
  scr.in_flight_of_process.assign(max_process + 1, kNoToken);
  for (const WaveEvent& e : scr.events) {
    TokenId& slot = scr.in_flight_of_process[scr.plan_of[e.token]->process];
    if constexpr (Overlay::kFaulted) {
      if (e.hop == ov.doom(e.token)) {
        slot = kNoToken;
        continue;
      }
    }
    if (e.hop == 0) {
      if (slot != kNoToken) {
        return scalar(exec, arena, ov, /*record_steps=*/false, sink);
      }
      slot = e.token;
    }
    if (e.hop == d) slot = kNoToken;
  }

  if (sink == nullptr) {
    scr.records.assign(max_token + 1, TokenRecord{});
  } else {
    scr.first_seq_of_token.assign(max_token + 1, 0);
    scr.pos_of_token.assign(max_token + 1, 0);
    scr.window.reset(*sink, /*deferred=*/true);
  }
  scr.wire_of.assign(max_token + 1, kInvalidWire);

  const CompiledNetwork& cnet = *arena.compiled_;
  CompiledState& cstate = *arena.wave_state_;
  const std::uint32_t fan_out = cnet.fan_out();
  if constexpr (Overlay::kFaulted) scr.reset_overlay(cnet);
  scr.bucket_start.assign(d + 2, 0);
  scr.bucket_pos.assign(d + 1, 0);

  // Entry and exit bookkeeping. Hop-0 events are visited in sorted-index
  // order within each chunk's level-0 slice, so opens arrive in first_seq
  // order.
  const auto enter = [&](TokenId t, std::uint64_t seq) {
    const std::uint32_t source = scr.plan_of[t]->source;
    scr.wire_of[t] = cnet.source_wire(source);
    ++cstate.source_count[source];
    if (sink == nullptr) {
      scr.records[t].first_seq = seq;
    } else {
      scr.first_seq_of_token[t] = seq;
      scr.pos_of_token[t] = scr.window.open();
    }
  };
  const auto leave = [&](TokenId t, Value v, std::uint64_t seq) {
    const TokenPlan& plan = *scr.plan_of[t];
    if (sink == nullptr) {
      scr.records[t] =
          make_record(plan, v, fan_out, scr.records[t].first_seq, seq);
    } else {
      scr.window.close(scr.pos_of_token[t],
                       make_record(plan, v, fan_out,
                                   scr.first_seq_of_token[t], seq));
    }
  };

  std::uint64_t next_seq = 0;
  for (std::size_t base = 0; base < scr.events.size(); base += kWaveChunk) {
    const std::size_t n = std::min(kWaveChunk, scr.events.size() - base);
    const WaveEvent* chunk = scr.events.data() + base;

    // The seq of a pristine event is its global sorted index. Overlay
    // seqs are drawn in sorted order before bucketing, skipping drop
    // events exactly like the scalar loop's skipped increment.
    if constexpr (Overlay::kFaulted) {
      scr.seq_of.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        scr.seq_of[i] =
            chunk[i].hop == ov.doom(chunk[i].token) ? 0 : next_seq++;
      }
    }

    // Stable counting sort of the chunk by hop. A balancer lives at
    // exactly one level, so grouping by level keeps each balancer's
    // arrival order; hop h sorts before hop h+1, so a token's own steps
    // stay ordered within the chunk.
    std::fill(scr.bucket_start.begin(), scr.bucket_start.end(), 0u);
    for (std::size_t i = 0; i < n; ++i) ++scr.bucket_start[chunk[i].hop + 1];
    for (std::uint32_t h = 0; h <= d; ++h) {
      scr.bucket_start[h + 1] += scr.bucket_start[h];
    }
    std::copy(scr.bucket_start.begin(), scr.bucket_start.end() - 1,
              scr.bucket_pos.begin());
    scr.order.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      scr.order[scr.bucket_pos[chunk[i].hop]++] =
          static_cast<std::uint32_t>(i);
    }

    for (std::uint32_t lvl = 0; lvl <= d; ++lvl) {
      const std::span<const std::uint32_t> slice(
          scr.order.data() + scr.bucket_start[lvl],
          scr.bucket_start[lvl + 1] - scr.bucket_start[lvl]);
      if (slice.empty()) continue;

      if constexpr (Overlay::kFaulted) {
        // Event by event through the overlay step. A drop resolves its
        // issue slot; emission eligibility is reconciled at the chunk's
        // deferred drain, so call order against other levels is
        // immaterial.
        for (const std::uint32_t idx : slice) {
          const TokenId t = chunk[idx].token;
          if (lvl == ov.doom(t)) {
            if (sink != nullptr) scr.window.drop(scr.pos_of_token[t]);
            continue;
          }
          if (lvl == 0) enter(t, scr.seq_of[idx]);
          Value v = 0;
          if (scr.overlay_step(cnet, ov.faults.stuck, scr.wire_of[t], v)) {
            leave(t, v, scr.seq_of[idx]);
          }
        }
      } else {
        if (lvl == 0) {
          for (const std::uint32_t idx : slice) {
            enter(chunk[idx].token, base + idx);
          }
        }
        scr.cursors.clear();
        for (const std::uint32_t idx : slice) {
          scr.cursors.push_back({scr.wire_of[chunk[idx].token], idx});
        }
        if (lvl < d) {
          step_wave(cnet, cstate, scr.cursors);
          for (const TokenCursor& c : scr.cursors) {
            scr.wire_of[chunk[c.tag].token] = c.wire;
          }
        } else {
          scr.values.resize(scr.cursors.size());
          step_wave_counters(cnet, cstate, scr.cursors, scr.values);
          for (std::size_t k = 0; k < scr.cursors.size(); ++k) {
            const std::uint32_t idx = scr.cursors[k].tag;
            leave(chunk[idx].token, scr.values[k], base + idx);
          }
        }
      }
    }
    if (sink != nullptr) scr.window.drain();
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
