// Compiled fast-path representation of a balancing network.
//
// The pointer-chasing Network graph is ideal for construction, validation
// and structural analysis, but it is a poor shape for the simulation inner
// loop: every NetworkState::step() used to pay bounds-checked wire/balancer
// lookups, an endpoint-kind branch through nested structs, a `%` by the
// balancer fan-out, and a load through the balancer's own heap-allocated
// out-wire vector. CompiledNetwork flattens all of that, once per Network,
// into structure-of-arrays tables:
//
//   * a per-wire Route {node, in_slot, out_base, rr_mask, is_sink}: one
//     16-byte load tells a token what it hits next AND where that
//     balancer's history slots, out-wires, and round-robin mask live —
//     the per-balancer offset tables are pre-joined into the route so the
//     hot loop never chases them;
//   * all balancer out-wires in one flat array with per-balancer offsets;
//   * per-balancer round-robin masks, so advancing the position is a
//     bitmask AND when the fan-out is a power of two (every 2-balancer
//     construction in core/constructions.hpp) and a wrap-compare otherwise.
//
// CompiledState is the matching dynamic-state arena, compressed to the
// minimum a step must touch: per-balancer token throughput (which encodes
// the round-robin position and the y_j exit counts), counter values, and
// per-source entry counts — the x_i history variables are reconstructed
// from upstream throughput rather than counted per hop (see the member
// comments). It has a reset() that rewinds to the freshly-constructed
// state without releasing capacity. One CompiledNetwork serves any number
// of CompiledStates; the simulator's arena (sim/simulator.hpp) keeps one
// of each per network and resets the state between trials instead of
// reallocating.
//
// Semantics are untouched: these tables are a re-indexing of exactly the
// information NetworkState::step() used to re-derive per step, and
// tests/compiled_test.cpp holds the compiled path byte-identical to the
// original graph walk (preserved in core/reference_state.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "core/topology.hpp"

namespace cn {

/// Immutable flat routing tables for one Network. Build once per network;
/// the Network must outlive the compiled view.
class CompiledNetwork {
 public:
  /// Where a token sitting on a wire goes next: a balancer or, when
  /// is_sink, the counter `node`. The balancer's flat-array coordinates
  /// are denormalized in so one load serves the whole hop (in_port is
  /// recoverable as in_slot - in_offset(node); only the recording path
  /// needs it). 16 bytes — a cache line covers four wires.
  struct Route {
    NodeIndex node = 0;          ///< Balancer index, or sink index.
    std::uint32_t in_slot = 0;   ///< in_offset(node) + in_port.
    std::uint32_t out_base = 0;  ///< out_wires_ index of (node, 0).
    PortIndex rr_mask = 0;       ///< fan_out - 1 if pow2, else kNoMask.
    std::uint8_t is_sink = 0;
  };

  /// Sentinel in the round-robin mask table: fan-out not a power of two.
  static constexpr PortIndex kNoMask = 0xFFFF;

  explicit CompiledNetwork(const Network& net);

  const Network& network() const noexcept { return *net_; }
  std::uint32_t num_balancers() const noexcept { return num_balancers_; }
  std::uint32_t fan_in() const noexcept { return fan_in_; }
  std::uint32_t fan_out() const noexcept { return fan_out_; }
  std::uint32_t num_wires() const noexcept {
    return static_cast<std::uint32_t>(routes_.size());
  }

  const Route& route(WireIndex w) const noexcept { return routes_[w]; }
  WireIndex source_wire(std::uint32_t i) const noexcept {
    return source_wires_[i];
  }

  /// Output wire of balancer b, port j: one indexed load into a flat array.
  WireIndex out_wire(NodeIndex b, PortIndex j) const noexcept {
    return out_wires_[out_offset_[b] + j];
  }

  /// Output wire by flat index (Route::out_base + port): the hot-loop form.
  WireIndex out_wire_at(std::uint32_t flat) const noexcept {
    return out_wires_[flat];
  }

  /// Route of the wire at flat out-port index (pre-joined copy of
  /// route(out_wire_at(flat))). The traverse loop hops route-to-route with
  /// a single load, instead of chaining a wire load into a route load —
  /// one less L1 latency on the only serial dependence in the loop.
  const Route& out_route_at(std::uint32_t flat) const noexcept {
    return out_routes_[flat];
  }

  /// Where the wire into a balancer in-port comes from; indexed by the
  /// flat in-slot (in_offset(b) + i). This is what lets the x_i history
  /// variables be reconstructed instead of counted per hop: everything
  /// the upstream node emitted onto `wire`, minus the tokens still
  /// sitting on it, has entered (b, i).
  struct Inlet {
    WireIndex wire = 0;             ///< The wire feeding this in-port.
    NodeIndex origin = 0;           ///< Source index or upstream balancer.
    PortIndex origin_port = 0;      ///< Upstream out-port (balancers only).
    std::uint8_t from_source = 0;   ///< Origin is a network input wire.
  };

  const Inlet& inlet(std::uint32_t in_slot) const { return inlets_.at(in_slot); }

  /// Round-robin position after `through` tokens have crossed balancer b:
  /// the port the NEXT token will take. Because the position starts at 0
  /// and advances by one per token, it is simply through mod fan-out —
  /// a bitmask when the fan-out is a power of two.
  PortIndex position_of(NodeIndex b, std::uint64_t through) const noexcept {
    const PortIndex mask = rr_mask_[b];
    if (mask != kNoMask) return static_cast<PortIndex>(through & mask);
    return static_cast<PortIndex>(through % bal_fan_out_[b]);
  }

  /// position_of via the mask carried in the route — no rr_mask_ load;
  /// the per-balancer fan-out table is touched only on the rare
  /// non-power-of-two path.
  PortIndex port_of(const Route& r, std::uint64_t through) const noexcept {
    if (r.rr_mask != kNoMask) {
      return static_cast<PortIndex>(through & r.rr_mask);
    }
    return static_cast<PortIndex>(through % bal_fan_out_[r.node]);
  }

  PortIndex balancer_fan_out(NodeIndex b) const noexcept {
    return bal_fan_out_[b];
  }

  /// Flat in-slot of balancer b's port 0: a route's in_port is
  /// in_slot - in_offset(node), as NetworkState::step and the simulator's
  /// step log recover it.
  std::uint32_t in_offset(NodeIndex b) const noexcept { return in_offset_[b]; }
  /// Bounds-checked variant for the NetworkState accessors (which must
  /// keep throwing std::out_of_range on bad balancer indices).
  std::uint32_t in_offset_checked(NodeIndex b) const { return in_offset_.at(b); }

 private:
  const Network* net_;
  std::uint32_t num_balancers_ = 0;
  std::uint32_t fan_in_ = 0;
  std::uint32_t fan_out_ = 0;
  std::vector<Route> routes_;            ///< Indexed by wire.
  std::vector<WireIndex> source_wires_;  ///< Indexed by input wire.
  std::vector<WireIndex> out_wires_;     ///< Flattened balancer out-ports.
  std::vector<Route> out_routes_;        ///< routes_[out_wires_[k]] per k.
  std::vector<Inlet> inlets_;            ///< Indexed by flat in-slot.
  std::vector<std::uint32_t> in_offset_;   ///< Size num_balancers + 1.
  std::vector<std::uint32_t> out_offset_;  ///< Size num_balancers + 1.
  std::vector<PortIndex> bal_fan_out_;     ///< Indexed by balancer.
  std::vector<PortIndex> rr_mask_;         ///< fan_out-1 if pow2 else kNoMask.
};

/// The dynamic half of an execution over a CompiledNetwork: exactly the
/// vectors NetworkState mutates per step, exposed as a plain data arena
/// that the simulator's hop (step_token, core/wave.hpp) steps directly and
/// resets between trials.
class CompiledState {
 public:
  explicit CompiledState(const CompiledNetwork& compiled);

  /// Rewinds to the freshly-constructed state (positions and history
  /// zeroed, counters handing out their sink index again) while keeping
  /// every allocation. Equality with a newly built CompiledState is a
  /// tested invariant.
  void reset();

  const CompiledNetwork& compiled() const noexcept { return *compiled_; }

  friend bool operator==(const CompiledState&, const CompiledState&) = default;

  // Data members are public by design: NetworkState and the hop index them
  // directly on the hot path.
  //
  // This is deliberately the MINIMAL state a step needs to touch — one
  // 64-bit increment per balancer hop, one counter bump per exit. The
  // paper's richer observables are all pure functions of it:
  //
  //   * round-robin position: starts at 0, advances once per token, so
  //     after T = bal_through[b] tokens it is T mod k;
  //   * y_j exit counts: token i (0-based) exits port i mod k, so
  //     y_j = ceil((T - j) / k);
  //   * x_i entry counts: wires are point-to-point, so everything the
  //     upstream node emitted onto the in-wire (its y_j', or source_count
  //     for a network input) minus the tokens currently parked on that
  //     wire has entered port i — NetworkState::balancer_in_count does
  //     exactly that subtraction against its in-flight token table;
  //   * per-sink exit counts: counter j hands out j, j+w, j+2w, ..., so
  //     its next value encodes how many tokens it has counted;
  //   * network totals: entered = sum of source_count, exited = sum of the
  //     per-sink exit counts.
  //
  // Under a fault overlay the simulator never advances a stuck balancer's
  // bal_through, so its position stays at port 0: the wedged toggle.
  std::vector<std::uint64_t> bal_through;   ///< Tokens through each balancer.
  std::vector<Value> counter_next;          ///< Next value per sink counter.
  std::vector<std::uint64_t> source_count;  ///< Tokens entered per input wire.

 private:
  const CompiledNetwork* compiled_;
};

}  // namespace cn
