// Level-synchronous (wave) traversal over the compiled routing tables.
//
// The paper phrases its constructions in terms of WAVES: a set of tokens
// crosses layer 1, then layer 2, and so on — level-by-level, not
// token-by-token. The compiled fast path (core/compiled.hpp) shepherds one
// token at a time across the flat Route table, which leaves throughput on
// the table: every hop of every token re-derives "what do I hit next" from
// a 16-byte Route even though all tokens at the same level hit the same
// layer of balancers. This header makes the wave the execution unit:
//
//   * WavePlan assigns every wire its LEVEL (distance from the input
//     layer) and certifies the network uniform in the structural sense —
//     every path from a source to a counter crosses the same number of
//     nodes, so "all tokens at level l" is well defined;
//   * step_wave / step_wave_counters advance a whole span of tokens one
//     level in a tight loop over the shared tables, each token's wire
//     kept in a caller-owned per-token array (the generic wave kernels:
//     any uniform network, any fan-out);
//   * WidthWaves<W> is the width-specialized form for the hot widths
//     (W = 8, 32, 64): per-level structure-of-arrays tables sized by the
//     compile-time width (std::array<.., W>), level-local slot indexing
//     (a cursor holds a slot in [0, W), not a global wire id), the
//     round-robin mask hard-coded to 1 (every 2-balancer network), and no
//     is_sink branch — the level loop bound is a constant the compiler
//     can unroll and vectorize around.
//
// Identity: the specialized tables are POPULATED FROM the runtime-compiled
// CompiledNetwork (not re-derived from the construction), so they are a
// re-indexing of the exact tables the scalar path walks; byte-identity
// with the scalar engine is then a per-hop invariant, held by
// tests/wave_test.cpp differential suites. State is the same CompiledState
// the scalar path mutates — one bal_through increment per hop, one
// counter bump per exit — so the history accessors (NetworkState /
// CompiledState pure functions) remain valid mid-wave.
//
// Ordering contract: a wave kernel advances tokens IN SPAN ORDER. Two
// tokens hitting the same balancer toggle it in their span positions'
// order, exactly as if the scalar engine had stepped those tokens in that
// order. Callers that need a specific global order (the simulator's
// canonical step order) bucket before calling.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/compiled.hpp"
#include "core/topology.hpp"

namespace cn {

/// A token's position inside a WidthWaves wave: its level-local slot.
/// `tag` is caller-owned.
struct TokenCursor {
  WireIndex wire = 0;
  std::uint32_t tag = 0;
};

/// Level structure of a compiled network: distance of every wire from the
/// input layer, plus the uniformity certificate that makes waves well
/// defined. Build once per network (the simulator's arena caches it).
class WavePlan {
 public:
  /// Level not reachable from any source wire.
  static constexpr std::uint32_t kUnleveled = 0xFFFFFFFFu;

  explicit WavePlan(const CompiledNetwork& net);

  /// True when every source-to-counter path has the same length: all
  /// in-wires of each balancer sit at one level and all counters sit at
  /// level depth(). Exactly the property the scalar simulator checks
  /// dynamically ("network is not uniform"); here it is decided once,
  /// structurally.
  bool uniform() const noexcept { return uniform_; }

  /// Number of balancer layers (counters are at this level). Valid only
  /// when uniform().
  std::uint32_t depth() const noexcept { return depth_; }

  std::uint32_t level_of_wire(WireIndex w) const {
    return level_of_wire_.at(w);
  }

  /// Wires at `level`, ascending by wire index — the slot order the
  /// width-specialized tables use.
  const std::vector<WireIndex>& wires_at(std::uint32_t level) const {
    return wires_at_.at(level);
  }

  const CompiledNetwork& compiled() const noexcept { return *net_; }

 private:
  const CompiledNetwork* net_;
  bool uniform_ = true;
  std::uint32_t depth_ = 0;
  std::vector<std::uint32_t> level_of_wire_;
  std::vector<std::vector<WireIndex>> wires_at_;
};

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
  const std::uint32_t stride = net.fan_out();
  for (std::size_t k = 0; k < tokens.size(); ++k) {
    const CompiledNetwork::Route& r = net.route(wire[tokens[k]]);
    counted(k, state.counter_next[r.node]);
    state.counter_next[r.node] += stride;
  }
}

/// Width-specialized wave engine for a uniform all-(2,2)-balancer network
/// of compile-time width W at every level — the shape of B(w) and P(w).
/// Cursors hold LEVEL-LOCAL SLOTS in [0, W): entry_slot() converts a
/// source wire index, step_level() maps level-l slots to level-(l+1)
/// slots, step_counters() assigns values at the counters.
template <std::uint32_t W>
class WidthWaves {
  static_assert(W >= 2 && (W & (W - 1)) == 0,
                "hot widths are powers of two");

 public:
  /// Builds the per-level tables from `plan`'s compiled network, or
  /// returns nullptr when the network does not have the required shape
  /// (width W at every level, all balancers (2,2) with a round-robin
  /// mask of 1). The tables are copied from the runtime-compiled Route
  /// tables, so routing is identical by construction.
  static std::unique_ptr<WidthWaves> try_build(const WavePlan& plan);

  std::uint32_t depth() const noexcept { return depth_; }

  /// Level-0 slot of network input wire `source` (in [0, W)).
  std::uint32_t entry_slot(std::uint32_t source) const {
    return entry_[source];
  }

  /// Counter index reached from level-depth() slot `slot`.
  std::uint32_t sink_of_slot(std::uint32_t slot) const { return sink_[slot]; }

  /// Global wire id of `slot` at `level` — lets tests cross-check the
  /// slot-indexed walk against the generic wire-indexed walk.
  WireIndex wire_of_slot(std::uint32_t level, std::uint32_t slot) const {
    return wire_of_.at(level)[slot];
  }

  /// Advances every cursor (slot at `level`) one balancer hop, in span
  /// order; slots become level+1 slots. The inner loop is two indexed
  /// loads, a shared 64-bit increment, and a store — no mask lookup, no
  /// sink branch, no modulo.
  void step_level(std::uint32_t level, CompiledState& state,
                  std::span<TokenCursor> wave) const {
    const Level& lv = levels_[level];
    for (TokenCursor& c : wave) {
      const std::uint32_t s = c.wire;
      const std::uint64_t t = state.bal_through[lv.node[s]]++;
      c.wire = lv.out[2 * s + (t & 1)];
    }
  }

  /// Counter hop for cursors at level depth(): values[i] receives the
  /// value cursor i counts, in span order. The counter stride is the
  /// compile-time width.
  void step_counters(CompiledState& state, std::span<const TokenCursor> wave,
                     std::span<Value> values) const {
    for (std::size_t i = 0; i < wave.size(); ++i) {
      const std::uint32_t sink = sink_[wave[i].wire];
      values[i] = state.counter_next[sink];
      state.counter_next[sink] += W;
    }
  }

 private:
  WidthWaves() = default;

  /// One balancer layer, slot-indexed structure-of-arrays: node[s] is the
  /// balancer the level-local wire s feeds, out[2*s + port] the
  /// next-level slot behind that balancer's `port`.
  struct Level {
    std::array<NodeIndex, W> node;
    std::array<std::uint32_t, 2 * W> out;
  };

  std::uint32_t depth_ = 0;
  std::vector<Level> levels_;                       ///< Size depth_.
  std::array<std::uint32_t, W> entry_{};            ///< Source -> slot.
  std::array<std::uint32_t, W> sink_{};             ///< Slot -> counter.
  std::vector<std::array<WireIndex, W>> wire_of_;   ///< Size depth_ + 1.
};

extern template class WidthWaves<8>;
extern template class WidthWaves<32>;
extern template class WidthWaves<64>;

}  // namespace cn
