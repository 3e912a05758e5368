// Sequential (single-stepping) execution semantics for balancing networks
// (paper Section 2.2).
//
// NetworkState holds the dynamic part of an execution: balancer round-robin
// positions, counter values, and in-flight token positions. Callers control
// the interleaving completely by choosing which token to step next; this is
// exactly the power the paper's adversary has, and it is what the proof
// reconstructions (core/split, core/verify) build on. The timed simulator
// (src/sim) keeps no per-token table: it steps the bare CompiledState
// through the hop of core/wave.hpp, and its tests replay its step order
// on a NetworkState to check it.
//
// Routing is delegated to the flat tables of core/compiled.hpp: one
// CompiledNetwork is built per Network (either privately by the
// NetworkState(Network) constructor or shared via the CompiledNetwork
// constructor) and each hop is an indexed load instead of a graph walk.
// Step semantics, history variables, recording, and error behavior are
// unchanged; core/reference_state.hpp preserves the original graph-walking
// implementation as the executable specification, and the two are held
// byte-identical by tests/compiled_test.cpp.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/compiled.hpp"
#include "core/topology.hpp"

namespace cn {

/// One transition step (paper Section 2.1/2.2): either a balancer
/// transition BAL_p(T, B, i, j) or a counter transition COUNT_p(T, C, v).
struct Step {
  enum class Kind : std::uint8_t { kBalancer, kCounter };

  Kind kind = Kind::kBalancer;
  ProcessId process = 0;
  TokenId token = 0;
  NodeIndex node = 0;      ///< Balancer index, or sink index for kCounter.
  PortIndex in_port = 0;   ///< kBalancer only.
  PortIndex out_port = 0;  ///< kBalancer only.
  Value value = 0;         ///< kCounter only.

  friend bool operator==(const Step&, const Step&) = default;
};

/// Dynamic state of a balancing network plus in-flight token positions.
class NetworkState {
 public:
  /// Compiles the network's routing tables privately. Prefer the shared
  /// overload when many states run over the same network.
  explicit NetworkState(const Network& net);

  /// Builds on already-compiled routing tables; `compiled` (and the
  /// Network behind it) must outlive this state. This is the arena path:
  /// one CompiledNetwork per network, many resettable states.
  explicit NetworkState(std::shared_ptr<const CompiledNetwork> compiled);

  const Network& network() const noexcept { return compiled_->network(); }
  const CompiledNetwork& compiled() const noexcept { return *compiled_; }

  /// Rewinds to the freshly-constructed state — no tokens, zeroed history
  /// variables, counters handing out their sink index, empty step log —
  /// while keeping every allocation. The recording toggle (configuration,
  /// not execution state) is preserved. This is what lets a sweep worker
  /// reuse one state across trials instead of reallocating ~8 vectors.
  void reset();

  // --- token lifecycle --------------------------------------------------

  /// Introduces token `token` of process `proc` on input wire `source`.
  /// Token ids must be fresh; they need not be dense, but memory grows
  /// with the largest id. Throws std::invalid_argument on reuse.
  void enter(TokenId token, ProcessId proc, std::uint32_t source);

  /// True once the token has traversed its counter.
  bool done(TokenId token) const;

  /// Value the token received; valid only once done(token).
  Value value(TokenId token) const;

  /// Process that introduced the token.
  ProcessId process_of(TokenId token) const;

  /// Advances the token through the next node on its path (one balancer
  /// transition or the final counter transition) and returns the step.
  /// Throws std::logic_error if the token is unknown or already done.
  Step step(TokenId token);

  /// Steps the token to completion; returns the value it received.
  Value traverse(TokenId token);

  /// Convenience: enter + traverse in one call.
  Value shepherd(TokenId token, ProcessId proc, std::uint32_t source);

  /// Number of tokens entered but not yet done.
  std::uint32_t in_flight() const noexcept { return in_flight_; }

  /// Quiescent network state: every token that entered has exited
  /// (paper Section 2.2 liveness property reaches such states).
  bool quiescent() const noexcept { return in_flight_ == 0; }

  // --- component state --------------------------------------------------

  /// Round-robin position of balancer b: the output port the next token
  /// will take (paper's balancer state s, 0-indexed). Reconstructed from
  /// the balancer's token throughput; see CompiledState::bal_through.
  PortIndex balancer_position(NodeIndex b) const {
    return compiled_->position_of(b, state_.bal_through.at(b));
  }

  /// Next value counter j will hand out (j, j + w_out, j + 2*w_out, ...).
  Value counter_next(std::uint32_t sink) const {
    return state_.counter_next.at(sink);
  }

  // --- history variables (paper Section 2.2, property 4) -----------------

  /// Tokens that have entered balancer b on input port i so far (x_i).
  std::uint64_t balancer_in_count(NodeIndex b, PortIndex i) const;
  /// Tokens that have exited balancer b on output port j so far (y_j).
  std::uint64_t balancer_out_count(NodeIndex b, PortIndex j) const;
  /// Tokens that have exited the network on output wire j so far.
  /// Counter j hands out j, j + w, j + 2w, ...: its next value encodes
  /// how many tokens it has counted.
  std::uint64_t sink_count(std::uint32_t sink) const {
    return (state_.counter_next.at(sink) - sink) / compiled_->fan_out();
  }
  /// Tokens that have entered the network on input wire i so far.
  std::uint64_t source_count(std::uint32_t source) const {
    return state_.source_count.at(source);
  }
  /// Total tokens that have entered the network (sum of source counts).
  std::uint64_t total_entered() const noexcept {
    std::uint64_t n = 0;
    for (const std::uint64_t c : state_.source_count) n += c;
    return n;
  }
  /// Total tokens that have exited (sum of per-sink exit counts).
  std::uint64_t total_exited() const noexcept {
    std::uint64_t n = 0;
    const std::uint32_t w = compiled_->fan_out();
    for (std::uint32_t j = 0; j < w; ++j) {
      n += (state_.counter_next[j] - j) / w;
    }
    return n;
  }

  // --- step recording ----------------------------------------------------

  /// When enabled, every step() result is appended to log().
  void set_recording(bool on) noexcept { recording_ = on; }
  const std::vector<Step>& log() const noexcept { return log_; }
  void clear_log() { log_.clear(); }

 private:
  struct TokenState {
    ProcessId process = 0;
    WireIndex wire = kInvalidWire;  ///< Current wire; kInvalidWire = unused.
    bool entered = false;
    bool finished = false;
    Value value = 0;
  };

  TokenState& token_ref(TokenId token);
  const TokenState& token_ref(TokenId token) const;

  /// Runs a token from `route` to its counter (the shared hot loop of
  /// traverse and the fused shepherd fast path); fills ts and returns the
  /// counted value.
  Value run_to_counter(CompiledNetwork::Route route, TokenState& ts);

  std::shared_ptr<const CompiledNetwork> compiled_;
  CompiledState state_;
  std::vector<TokenState> tokens_;
  std::uint32_t in_flight_ = 0;
  bool recording_ = false;
  std::vector<Step> log_;
};

}  // namespace cn
