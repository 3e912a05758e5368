#include "core/sequential.hpp"

#include <stdexcept>

namespace cn {

NetworkState::NetworkState(const Network& net)
    : NetworkState(std::make_shared<const CompiledNetwork>(net)) {}

NetworkState::NetworkState(std::shared_ptr<const CompiledNetwork> compiled)
    : compiled_(std::move(compiled)), state_(*compiled_) {}

void NetworkState::reset() {
  state_.reset();
  tokens_.clear();
  in_flight_ = 0;
  log_.clear();
}

NetworkState::TokenState& NetworkState::token_ref(TokenId token) {
  if (token >= tokens_.size()) {
    throw std::logic_error("NetworkState: unknown token");
  }
  return tokens_[token];
}

const NetworkState::TokenState& NetworkState::token_ref(TokenId token) const {
  if (token >= tokens_.size()) {
    throw std::logic_error("NetworkState: unknown token");
  }
  return tokens_[token];
}

void NetworkState::enter(TokenId token, ProcessId proc, std::uint32_t source) {
  if (source >= compiled_->fan_in()) {
    throw std::invalid_argument("NetworkState::enter: bad input wire");
  }
  // Ascending ids (the common pattern) take the inlinable push_back path
  // instead of a resize call per token; sparse ids still resize exactly,
  // so which ids throw "unknown token" is unchanged.
  if (token == tokens_.size()) {
    tokens_.emplace_back();
  } else if (token > tokens_.size()) {
    tokens_.resize(token + 1);
  }
  TokenState& ts = tokens_[token];
  if (ts.entered) {
    throw std::invalid_argument("NetworkState::enter: token id reused");
  }
  ts.entered = true;
  ts.process = proc;
  ts.wire = compiled_->source_wire(source);
  ++state_.source_count[source];
  ++in_flight_;
}

bool NetworkState::done(TokenId token) const { return token_ref(token).finished; }

Value NetworkState::value(TokenId token) const {
  const TokenState& ts = token_ref(token);
  if (!ts.finished) throw std::logic_error("NetworkState::value: token in flight");
  return ts.value;
}

ProcessId NetworkState::process_of(TokenId token) const {
  return token_ref(token).process;
}

Step NetworkState::step(TokenId token) {
  TokenState& ts = token_ref(token);
  if (!ts.entered || ts.finished) {
    throw std::logic_error("NetworkState::step: token not in flight");
  }
  const CompiledNetwork& net = *compiled_;
  const CompiledNetwork::Route route = net.route(ts.wire);
  Step st;
  st.process = ts.process;
  st.token = token;
  if (!route.is_sink) {
    const NodeIndex b = route.node;
    const PortIndex out_port = net.port_of(route, state_.bal_through[b]++);
    ts.wire = net.out_wire_at(route.out_base + out_port);
    st.kind = Step::Kind::kBalancer;
    st.node = b;
    st.in_port = static_cast<PortIndex>(route.in_slot - net.in_offset(b));
    st.out_port = out_port;
  } else {
    const std::uint32_t sink = route.node;
    const Value v = state_.counter_next[sink];
    state_.counter_next[sink] += net.fan_out();
    --in_flight_;
    ts.finished = true;
    ts.value = v;
    st.kind = Step::Kind::kCounter;
    st.node = sink;
    st.value = v;
  }
  if (recording_) log_.push_back(st);
  return st;
}

Value NetworkState::traverse(TokenId token) {
  if (recording_) {
    while (!token_ref(token).finished) step(token);
    return token_ref(token).value;
  }
  TokenState& ts = token_ref(token);
  if (ts.finished) return ts.value;
  if (!ts.entered) {
    throw std::logic_error("NetworkState::step: token not in flight");
  }
  return run_to_counter(compiled_->route(ts.wire), ts);
}

// Hot loop: one route load plus ONE 64-bit increment per hop — the whole
// history bookkeeping is reconstructed from bal_through by the accessors,
// not counted here. Hops route-to-route via out_route_at so the only
// serial dependence is a single 16-byte load. The wire index is
// deliberately not tracked: ts.wire stays wherever the caller left it,
// which is unobservable once the token finishes (every accessor either
// throws or reads value/finished first, the in-flight scan in
// balancer_in_count skips finished tokens, and reset() clears it).
Value NetworkState::run_to_counter(CompiledNetwork::Route route,
                                   TokenState& ts) {
  const CompiledNetwork& net = *compiled_;
  for (;;) {
    if (!route.is_sink) {
      const PortIndex out_port =
          net.port_of(route, state_.bal_through[route.node]++);
      route = net.out_route_at(route.out_base + out_port);
    } else {
      const std::uint32_t sink = route.node;
      const Value v = state_.counter_next[sink];
      state_.counter_next[sink] += net.fan_out();
      --in_flight_;
      ts.finished = true;
      ts.value = v;
      return v;
    }
  }
}

Value NetworkState::shepherd(TokenId token, ProcessId proc, std::uint32_t source) {
  if (recording_) {
    enter(token, proc, source);
    return traverse(token);
  }
  // Fused non-recording fast path. The token completes inside this call,
  // so the intermediate states enter + traverse would pass through — the
  // token parked on the source wire, ts.wire maintained per hop — are
  // unobservable; skip them and feed the source wire's route straight to
  // the hot loop. Validation and error messages are identical to enter().
  if (source >= compiled_->fan_in()) {
    throw std::invalid_argument("NetworkState::enter: bad input wire");
  }
  if (token == tokens_.size()) {
    tokens_.emplace_back();
  } else if (token > tokens_.size()) {
    tokens_.resize(token + 1);
  }
  TokenState& ts = tokens_[token];
  if (ts.entered) {
    throw std::invalid_argument("NetworkState::enter: token id reused");
  }
  ts.entered = true;
  ts.process = proc;
  ++state_.source_count[source];
  ++in_flight_;  // run_to_counter undoes this; kept so the loop is shared.
  return run_to_counter(compiled_->route(compiled_->source_wire(source)), ts);
}

std::uint64_t NetworkState::balancer_in_count(NodeIndex b, PortIndex i) const {
  // x_i is reconstructed, not counted: wires are point-to-point, so every
  // token the upstream node emitted onto the in-wire has entered (b, i) —
  // except the ones still parked on that wire awaiting their balancer
  // transition. ts.wire is exact for every unfinished token (enter and
  // the step paths maintain it, and traverse runs to completion before
  // control can reach this accessor).
  const CompiledNetwork::Inlet in =
      compiled_->inlet(compiled_->in_offset_checked(b) + i);
  std::uint64_t arrived;
  if (in.from_source) {
    arrived = state_.source_count[in.origin];
  } else {
    const std::uint64_t t = state_.bal_through[in.origin];
    const std::uint64_t k = compiled_->balancer_fan_out(in.origin);
    arrived = (t + k - 1 - in.origin_port) / k;
  }
  std::uint64_t parked = 0;
  for (const TokenState& ts : tokens_) {
    if (ts.entered && !ts.finished && ts.wire == in.wire) ++parked;
  }
  return arrived - parked;
}

std::uint64_t NetworkState::balancer_out_count(NodeIndex b, PortIndex j) const {
  // Round-robin assigns token i (0-based) to port i mod k, so after T
  // tokens exactly ceil((T - j) / k) have left port j. bal_through.at
  // supplies the bounds check on b; valid ports (j < k) cannot underflow
  // the numerator.
  const std::uint64_t t = state_.bal_through.at(b);
  const std::uint64_t k = compiled_->balancer_fan_out(b);
  return (t + k - 1 - j) / k;
}

}  // namespace cn
