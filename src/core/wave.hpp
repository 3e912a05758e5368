// Level-synchronous (wave) traversal over the compiled routing tables.
//
// The paper phrases its constructions in terms of WAVES: a set of tokens
// crosses layer 1, then layer 2, and so on — level-by-level, not
// token-by-token. The compiled fast path (core/compiled.hpp) shepherds one
// token at a time across the flat Route table; the simulator's wave body
// instead steps every token at one level before any token at the next.
// This header holds the hop every simulator body takes and the wave
// kernels built on it:
//
//   * step_token is THE hop: one token crosses one node of the flat Route
//     table, over a CompiledState. Every interpreter body of the timed
//     simulator (sim/simulator.cpp) steps through it — scalar and wave,
//     pristine and under a fault overlay;
//   * step_wave / step_wave_counters loop the hop's balancer half
//     (cross_balancer) or counter half (cross_counter) over a whole span
//     of tokens at one level, each token's wire kept in a caller-owned
//     per-token array (any uniform network, any fan-out).
//
// Waves need a uniform network (Network::uniform(), core/topology.hpp):
// every path from a source to a counter crosses the same number of
// nodes, so the level of a token after h hops is h, every balancer sits at
// one level, and "all tokens at level l" is well defined.
//
// State is the CompiledState the compiled fast path mutates — one
// bal_through increment per balancer hop, one counter bump per exit — so
// a balancer's round-robin position is its throughput mod its fan-out,
// exactly the paper's toggle. Byte-identity with the sequential engine is
// a per-hop invariant, held by tests/wave_test.cpp and by the simulator's
// differential test against a NetworkState replay.
//
// Ordering contract: a wave kernel advances tokens IN SPAN ORDER. Two
// tokens hitting the same balancer toggle it in their span positions'
// order, exactly as if the scalar engine had stepped those tokens in that
// order. Callers that need a specific global order (the simulator's
// canonical step order) bucket before calling.
#pragma once

#include <cstdint>
#include <span>

#include "core/compiled.hpp"
#include "core/topology.hpp"

namespace cn {

/// Stuck-balancer policy of a run without faults: every balancer toggles.
struct NeverStuck {
  constexpr bool operator()(NodeIndex) const noexcept { return false; }
};

/// Balancer half of the hop: the token on route `r` (a balancer) leaves
/// through the round-robin position, port_of(r, bal_through), and the
/// position advances when `advance`. Returns the token's next wire.
inline WireIndex cross_balancer(const CompiledNetwork& net,
                                CompiledState& state,
                                const CompiledNetwork::Route& r,
                                bool advance = true) {
  const std::uint64_t through = state.bal_through[r.node];
  state.bal_through[r.node] = through + advance;
  return net.out_wire_at(r.out_base + net.port_of(r, through));
}

/// Counter half of the hop: the token on route `r` (a counter) receives
/// counter_next, which advances by the fan-out. Returns the value.
inline Value cross_counter(const CompiledNetwork& net, CompiledState& state,
                           const CompiledNetwork::Route& r) {
  const Value v = state.counter_next[r.node];
  state.counter_next[r.node] = v + net.fan_out();
  return v;
}

/// The hop: the token on `wire` crosses the node the wire routes to (paper
/// Section 2.2). At a balancer it moves to the out-wire, and the balancer's
/// position advances unless stuck(balancer): a stuck balancer's
/// bal_through never moves, so it stays wedged at port 0, its initial
/// position. At a counter the call stores the counted value in `v` and
/// returns true.
template <class Stuck = NeverStuck>
inline bool step_token(const CompiledNetwork& net, CompiledState& state,
                       WireIndex& wire, Value& v, Stuck stuck = {}) {
  const CompiledNetwork::Route& r = net.route(wire);
  if (r.is_sink) {
    v = cross_counter(net, state, r);
    return true;
  }
  wire = cross_balancer(net, state, r, !stuck(r.node));
  return false;
}

/// Generic wave kernel: advances every token in `tokens` one BALANCER
/// hop, in span order; wire[t] is token t's wire, updated in place.
/// Precondition: every listed token's wire routes to a balancer (the
/// caller buckets by level, so a wave is homogeneous). Any fan-out.
void step_wave(const CompiledNetwork& net, CompiledState& state,
               std::span<const std::uint32_t> tokens,
               std::span<WireIndex> wire);

/// Generic counter kernel: every listed token's wire routes to a counter.
/// Calls counted(k, v) with the value v that tokens[k] counts, in span
/// order.
template <class Counted>
void step_wave_counters(const CompiledNetwork& net, CompiledState& state,
                        std::span<const std::uint32_t> tokens,
                        std::span<const WireIndex> wire, Counted&& counted) {
  for (std::size_t k = 0; k < tokens.size(); ++k) {
    counted(k, cross_counter(net, state, net.route(wire[tokens[k]])));
  }
}

}  // namespace cn
