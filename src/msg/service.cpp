#include "msg/service.hpp"

#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace cn::msg {

namespace {

/// Counter -> client reply latency.
constexpr double kResultLatency = 0.1;

/// Mutable per-run state shared by the actor handlers.
struct RunState {
  const Network* net = nullptr;
  const MsgRunSpec* spec = nullptr;
  EventKernel kernel;
  Xoshiro256 rng{1};
  std::vector<ActorId> balancer_actor;  ///< Actor per balancer.
  std::vector<ActorId> counter_actor;   ///< Actor per sink.
  std::vector<PortIndex> balancer_pos;  ///< Round-robin positions.
  std::vector<Value> counter_next;      ///< Next value per sink.
  Trace trace;                          ///< Indexed by token id.
  std::vector<bool> entered;            ///< Token seen at its first node?
  std::vector<bool> completed;          ///< Token counted?

  /// Streaming mode: records go to the sink at the counter crossing and
  /// the O(tokens) trace array above stays empty. A closed-loop client
  /// has at most one token in flight (requires p_msg_duplicate == 0), so
  /// entry bookkeeping shrinks to one slot per process. Counters complete
  /// in kernel-seq order; the reorder window converts that to the issue
  /// order the sink contract wants. Its monotone-producer contract holds:
  /// kernel.seq() is the delivered-message count, which grows by one per
  /// handler, and a handler opens at most one issue slot, so first_seqs
  /// arrive strictly increasing. (entered_proc doubles as the "this
  /// process has an open issue slot" flag, cleared on completion and on
  /// token loss.)
  TraceSink* sink = nullptr;
  IssueWindowBuffer reorder;
  std::vector<bool> entered_proc;
  std::vector<double> t_in_proc;
  std::vector<std::uint64_t> first_seq_proc;
  std::vector<std::uint64_t> pos_proc;  ///< Issue slot of the open token.

  /// Fault layer. The stream is separate from the workload RNG so a
  /// disabled plan leaves every latency draw untouched.
  fault::FaultStream faults{fault::FaultPlan{}, 0};
  double p_loss = 0.0;
  double p_dup = 0.0;
  double p_delay = 0.0;
  std::uint64_t tokens_lost = 0;
  std::uint64_t dup_deliveries = 0;
  std::uint64_t delayed_messages = 0;

  double draw_latency(std::uint32_t process) {
    if (spec->slow_process_zero) {
      return process == 0 ? spec->c_max : spec->c_min;
    }
    if (spec->extreme_latencies) {
      return rng.below(2) == 0 ? spec->c_min : spec->c_max;
    }
    return rng.uniform(spec->c_min, spec->c_max);
  }

  /// Destination actor of a wire, together with a flag for counters.
  ActorId wire_target(WireIndex w, bool* is_counter) const {
    const Endpoint& to = net->wire(w).to;
    *is_counter = to.kind == Endpoint::Kind::kSink;
    return *is_counter ? counter_actor[to.index] : balancer_actor[to.index];
  }

  /// Records the layer-1 crossing the first time a token reaches a node.
  void note_first_crossing(std::uint32_t token, std::uint32_t process) {
    if (sink == nullptr) {
      if (!entered[token]) {
        entered[token] = true;
        trace[token].t_in = kernel.now();
        trace[token].first_seq = kernel.seq();
      }
    } else if (!entered_proc[process]) {
      entered_proc[process] = true;
      t_in_proc[process] = kernel.now();
      first_seq_proc[process] = kernel.seq();
      pos_proc[process] = reorder.open();
    }
  }

  /// Forwards a token-carrying message, applying the message faults in a
  /// fixed draw order (loss, then delay, then duplication).
  void send_token(ActorId to, const Payload& payload, double latency) {
    if (faults.flip(p_loss)) {
      ++tokens_lost;  // dropped on the wire: the token vanishes
      if (sink != nullptr && entered_proc[payload.process]) {
        // Lost after entering the network: its client halts, so the open
        // issue slot would otherwise hold back every later-issued
        // completion until the final flush.
        entered_proc[payload.process] = false;
        reorder.drop(pos_proc[payload.process]);
      }
      return;
    }
    if (faults.flip(p_delay)) {
      ++delayed_messages;
      latency *= spec->fault.msg_delay_factor;
    }
    kernel.send(to, payload, latency);
    if (faults.flip(p_dup)) {
      ++dup_deliveries;  // at-least-once delivery: a second copy arrives
      kernel.send(to, payload, latency);
    }
  }
};

}  // namespace

std::string validate(const MsgRunSpec& spec) {
  if (spec.processes == 0) return "spec invalid: processes == 0";
  if (spec.ops_per_process == 0) return "spec invalid: ops_per_process == 0";
  if (!std::isfinite(spec.c_min) || !std::isfinite(spec.c_max)) {
    return "spec invalid: non-finite latency";
  }
  if (spec.c_min > spec.c_max) {
    return "spec invalid: c_min > c_max (inverted latency envelope)";
  }
  if (spec.c_min < 0.0 || spec.local_delay < 0.0) {
    return "spec invalid: negative latency";
  }
  return {};
}

namespace {

MsgRunResult run_message_passing_with(const Network& net,
                                      const MsgRunSpec& spec,
                                      TraceSink* sink) {
  MsgRunResult result;
  result.error = validate(spec);
  if (!result.ok()) return result;
  if (sink != nullptr && spec.fault.enabled &&
      spec.fault.p_msg_duplicate > 0.0) {
    // A duplicated delivery re-counts a token after its client moved on,
    // mutating the record after emission; only the collect path can
    // observe the final (last-delivery) record.
    result.error =
        "streaming msg run requires p_msg_duplicate == 0 (collect instead)";
    return result;
  }
  RunState st;
  st.sink = sink;
  st.net = &net;
  st.spec = &spec;
  st.rng = Xoshiro256(spec.seed);
  st.faults = fault::FaultStream(spec.fault, spec.seed);
  if (spec.fault.enabled) {
    st.p_loss = spec.fault.p_token_loss;
    st.p_dup = spec.fault.p_msg_duplicate;
    st.p_delay = spec.fault.p_msg_delay;
  }
  st.balancer_pos.assign(net.num_balancers(), 0);
  st.counter_next.resize(net.fan_out());
  for (std::uint32_t j = 0; j < net.fan_out(); ++j) st.counter_next[j] = j;
  const std::uint64_t total_tokens =
      static_cast<std::uint64_t>(spec.processes) * spec.ops_per_process;
  if (sink == nullptr) {
    st.trace.resize(total_tokens);
    st.entered.assign(total_tokens, false);
    st.completed.assign(total_tokens, false);
  } else {
    st.reorder.reset(*sink, /*deferred=*/false);
    st.entered_proc.assign(spec.processes, false);
    st.t_in_proc.assign(spec.processes, 0.0);
    st.first_seq_proc.assign(spec.processes, 0);
    st.pos_proc.assign(spec.processes, 0);
  }

  // Client crash schedule, drawn up front in ascending process order: a
  // crashed client issues a uniformly chosen number of operations and
  // then goes silent (the message-passing face of a crashed process).
  const std::uint32_t kNeverCrashes = spec.ops_per_process;
  std::vector<std::uint32_t> crash_after(spec.processes, kNeverCrashes);
  if (spec.fault.enabled && spec.fault.p_process_crash > 0.0) {
    for (std::uint32_t p = 0; p < spec.processes; ++p) {
      if (st.faults.flip(spec.fault.p_process_crash)) {
        crash_after[p] = static_cast<std::uint32_t>(
            st.faults.pick(0, spec.ops_per_process - 1));
      }
    }
  }

  // Balancer actors: forward the token along the round-robin output wire.
  st.balancer_actor.reserve(net.num_balancers());
  for (NodeIndex b = 0; b < net.num_balancers(); ++b) {
    st.balancer_actor.push_back(st.kernel.add_actor([&st, b](const Envelope& env) {
      st.note_first_crossing(env.payload.token, env.payload.process);
      const Balancer& bal = st.net->balancer(b);
      const PortIndex out = st.balancer_pos[b];
      st.balancer_pos[b] =
          static_cast<PortIndex>((out + 1) % bal.fan_out());
      bool is_counter = false;
      const ActorId next = st.wire_target(bal.out[out], &is_counter);
      st.send_token(next, env.payload, st.draw_latency(env.payload.process));
    }));
  }

  // Counter actors: assign the value, record completion, reply.
  st.counter_actor.reserve(net.fan_out());
  for (std::uint32_t j = 0; j < net.fan_out(); ++j) {
    st.counter_actor.push_back(st.kernel.add_actor([&st, j](const Envelope& env) {
      st.note_first_crossing(env.payload.token, env.payload.process);
      const Value v = st.counter_next[j];
      st.counter_next[j] += st.net->fan_out();
      if (st.sink == nullptr) {
        TokenRecord& rec = st.trace[env.payload.token];
        rec.token = env.payload.token;
        rec.process = env.payload.process;
        rec.sink = j;
        rec.value = v;
        rec.t_out = st.kernel.now();
        rec.last_seq = st.kernel.seq();
        st.completed[env.payload.token] = true;
      } else {
        TokenRecord rec;
        rec.token = env.payload.token;
        rec.process = env.payload.process;
        rec.sink = j;
        rec.value = v;
        rec.t_in = st.t_in_proc[env.payload.process];
        rec.t_out = st.kernel.now();
        rec.first_seq = st.first_seq_proc[env.payload.process];
        rec.last_seq = st.kernel.seq();
        st.entered_proc[env.payload.process] = false;
        st.reorder.close(st.pos_proc[env.payload.process], rec);
      }
      Payload reply = env.payload;
      reply.kind = Payload::Kind::kResult;
      reply.value = v;
      st.kernel.send(env.payload.client, reply, kResultLatency);
    }));
  }

  // Client actors: closed loop with local think time. The vector is
  // filled as actors are registered; handlers capture it by reference and
  // only read their own slot after registration completes.
  std::vector<std::uint32_t> remaining(spec.processes, spec.ops_per_process);
  std::vector<std::uint32_t> issued(spec.processes, 0);
  std::vector<ActorId> client_actor(spec.processes);
  for (std::uint32_t p = 0; p < spec.processes; ++p) {
    const std::uint32_t source = p % net.fan_in();
    client_actor[p] = st.kernel.add_actor([&st, &remaining, &issued,
                                           &client_actor, &crash_after, p,
                                           source](const Envelope& env) {
      if (env.payload.kind == Payload::Kind::kToken) return;  // not expected
      if (remaining[p] == 0) return;
      if (issued[p] >= crash_after[p]) return;  // crashed: silent forever
      --remaining[p];
      Payload token;
      token.kind = Payload::Kind::kToken;
      token.token = p * st.spec->ops_per_process + issued[p];
      token.process = p;
      token.client = client_actor[p];
      ++issued[p];
      if (st.sink != nullptr) st.entered_proc[p] = false;
      bool is_counter = false;
      const ActorId first =
          st.wire_target(st.net->source_wire(source), &is_counter);
      const double think =
          env.payload.kind == Payload::Kind::kStart ? 0.0 : st.spec->local_delay;
      st.send_token(first, token, think + st.draw_latency(p));
    });
  }
  // Kick every client off with a staggered start.
  for (std::uint32_t p = 0; p < spec.processes; ++p) {
    Payload start;
    start.kind = Payload::Kind::kStart;
    st.kernel.send(client_actor[p], start, st.rng.uniform(0.0, 2.0 * spec.c_max));
  }

  result.messages = st.kernel.run();
  result.sim_time = st.kernel.now();
  if (sink != nullptr) st.reorder.flush();
  if (spec.fault.active()) {
    if (sink == nullptr) {
      // Lost tokens and crashed clients leave holes in the token-indexed
      // trace; compact to completed operations (token-id order preserved).
      Trace compacted;
      compacted.reserve(st.trace.size());
      for (std::uint64_t t = 0; t < total_tokens; ++t) {
        if (st.completed[t]) compacted.push_back(st.trace[t]);
      }
      result.trace = std::move(compacted);
    }
    for (std::uint32_t p = 0; p < spec.processes; ++p) {
      if (crash_after[p] != kNeverCrashes) ++result.clients_crashed;
    }
  } else if (sink == nullptr) {
    result.trace = std::move(st.trace);
  }
  result.tokens_lost = st.tokens_lost;
  result.dup_deliveries = st.dup_deliveries;
  result.delayed_messages = st.delayed_messages;
  return result;
}

}  // namespace

MsgRunResult run_message_passing(const Network& net, const MsgRunSpec& spec) {
  return run_message_passing_with(net, spec, nullptr);
}

MsgRunResult run_message_passing(const Network& net, const MsgRunSpec& spec,
                                 TraceSink& sink) {
  return run_message_passing_with(net, spec, &sink);
}

}  // namespace cn::msg
