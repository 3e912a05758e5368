// Balancing-network topology (paper Section 2.1).
//
// A (w_in, w_out)-balancing network is a DAG with three node kinds:
//   * w_in  source nodes, each with one outgoing wire;
//   * w_out sink nodes (atomic counters), each with one incoming wire;
//   * inner nodes: (f_in, f_out)-balancers.
//
// This module stores the static graph plus derived structural data
// (balancer depths, layers, network depth, uniformity). Dynamic state
// (balancer round-robin positions, counter values, in-flight tokens) lives
// in core/sequential.hpp, and the prominent constructions (bitonic,
// periodic, counting tree) live in their own translation units.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace cn {

using NodeIndex = std::uint32_t;
using WireIndex = std::uint32_t;
using PortIndex = std::uint16_t;

// Execution-level identifiers live here (rather than core/sequential.hpp)
// so the compiled routing tables (core/compiled.hpp) can speak them
// without depending on the stepping engine.
using TokenId = std::uint32_t;
using ProcessId = std::uint32_t;
using Value = std::uint64_t;

inline constexpr WireIndex kInvalidWire = std::numeric_limits<WireIndex>::max();

/// One endpoint of a wire: a source output, a balancer port, or a sink input.
struct Endpoint {
  enum class Kind : std::uint8_t { kSource, kBalancer, kSink };

  Kind kind = Kind::kSource;
  NodeIndex index = 0;  ///< Source index, balancer index, or sink index.
  PortIndex port = 0;   ///< Balancer port (0-based); unused for source/sink.

  friend bool operator==(const Endpoint&, const Endpoint&) = default;
};

/// A wire connects a producer endpoint to a consumer endpoint.
///
/// Wires act purely as interconnection/delay elements: they impose no
/// queueing or ordering on pending tokens (paper Section 2.1).
struct Wire {
  Endpoint from;  ///< kSource or kBalancer(output port).
  Endpoint to;    ///< kSink or kBalancer(input port).
};

/// Static description of one (f_in, f_out)-balancer.
struct Balancer {
  std::vector<WireIndex> in;   ///< Input wires, indexed by input port.
  std::vector<WireIndex> out;  ///< Output wires, indexed by output port.

  PortIndex fan_in() const noexcept { return static_cast<PortIndex>(in.size()); }
  PortIndex fan_out() const noexcept { return static_cast<PortIndex>(out.size()); }
  bool regular() const noexcept { return in.size() == out.size(); }
};

/// An immutable, validated balancing-network graph.
///
/// Construct via NetworkBuilder (core/builder.hpp). On construction the
/// network computes balancer depths, the layer partition, the network
/// depth d(G) and uniformity; accessors below are O(1) thereafter.
class Network {
 public:
  /// Builds from raw parts; validates the graph and computes derived data.
  /// Throws std::invalid_argument on malformed input (dangling ports,
  /// cycles, multiply-connected endpoints).
  Network(std::uint32_t num_sources, std::uint32_t num_sinks,
          std::vector<Balancer> balancers, std::vector<Wire> wires,
          std::string name);

  // --- basic shape ------------------------------------------------------

  const std::string& name() const noexcept { return name_; }
  std::uint32_t fan_in() const noexcept { return num_sources_; }
  std::uint32_t fan_out() const noexcept { return num_sinks_; }
  std::uint32_t num_balancers() const noexcept {
    return static_cast<std::uint32_t>(balancers_.size());
  }
  std::uint32_t num_wires() const noexcept {
    return static_cast<std::uint32_t>(wires_.size());
  }

  const Balancer& balancer(NodeIndex b) const { return balancers_.at(b); }
  const Wire& wire(WireIndex w) const { return wires_.at(w); }
  const std::vector<Balancer>& balancers() const noexcept { return balancers_; }
  const std::vector<Wire>& wires() const noexcept { return wires_; }

  /// Wire leaving source node `i` (the network's input wire i).
  WireIndex source_wire(std::uint32_t i) const { return source_wires_.at(i); }
  /// Wire entering sink node `j` (the network's output wire j).
  WireIndex sink_wire(std::uint32_t j) const { return sink_wires_.at(j); }

  // --- derived structure (paper Section 2.5) ----------------------------

  /// Depth d(G): the maximum balancer depth; 0 for a balancer-free network.
  std::uint32_t depth() const noexcept { return depth_; }

  /// Depth of balancer `b`, in 1..d(G). Layer ℓ consists of the balancers
  /// with depth ℓ; sinks form layer d(G)+1 in a uniform network.
  std::uint32_t balancer_depth(NodeIndex b) const { return balancer_depth_.at(b); }

  /// Balancers making up layer ℓ, 1 <= ℓ <= d(G).
  const std::vector<NodeIndex>& layer(std::uint32_t ell) const {
    return layers_.at(ell - 1);
  }
  std::uint32_t num_layers() const noexcept {
    return static_cast<std::uint32_t>(layers_.size());
  }

  /// Total number of inner nodes — the paper's "size" of the network.
  std::uint32_t size() const noexcept { return num_balancers(); }

  /// True iff all source->sink paths cross the same number of balancers
  /// (LSST99 Definition 2.1), so that every token crosses exactly d(G)
  /// balancers and then a counter.
  bool uniform() const noexcept { return uniform_; }

 private:
  void validate() const;
  void compute_depths();

  std::uint32_t num_sources_;
  std::uint32_t num_sinks_;
  std::vector<Balancer> balancers_;
  std::vector<Wire> wires_;
  std::string name_;

  std::vector<WireIndex> source_wires_;
  std::vector<WireIndex> sink_wires_;
  std::vector<std::uint32_t> balancer_depth_;
  std::vector<std::vector<NodeIndex>> layers_;
  std::uint32_t depth_ = 0;
  bool uniform_ = false;
};

}  // namespace cn
