// Valency and split-structure analysis of counting networks
// (paper Section 5.3).
//
// The valency Val(z) of a wire z is the set of sink nodes reachable from
// z; the valency of a balancer is the union over its output wires. A
// balancer is *univalent* when its output valencies are pairwise disjoint
// and *totally ordering* when they are totally ordered by "every element
// less than" (≺). The split depth sd(G) is the least layer that is
// totally ordering; iteratively chopping the network at its split layer
// and keeping the bottom part yields the split sequence S^(0), S^(1), ...
// whose length is the split number sp(G).
//
// NOTE on the paper's d(S^(ℓ)): Theorem 5.11's timing condition uses a
// quantity the paper writes d(S^(ℓ)(G)). Cross-checking against
// Proposition 5.3 (the ℓ = 1 instance for the bitonic network, where the
// race takes lg w hops) and Corollary 5.12 (ℓ = lg w, 1 hop) shows the
// intended quantity is the number of *wire hops* from the ℓ-th split
// layer to the counters, i.e. d(G) + 1 - (absolute layer of the ℓ-th
// split layer). We expose it as race_depth(ℓ); for the bitonic network
// race_depth(ℓ) = lg w - ℓ + 1.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/topology.hpp"

namespace cn {

/// Bitset over sinks, 64 sinks per word (bit j of word j/64 = sink j).
using SinkSet = std::vector<std::uint64_t>;

std::uint32_t sinkset_count(const SinkSet& s);
bool sinkset_subset(const SinkSet& sub, const SinkSet& super);
bool sinkset_intersects(const SinkSet& a, const SinkSet& b);
/// Smallest / largest member; UINT32_MAX / 0 for the empty set.
std::uint32_t sinkset_min(const SinkSet& s);
std::uint32_t sinkset_max(const SinkSet& s);
/// True iff every element of `a` is smaller than every element of `b`
/// (the paper's V1 ≺ V2). Empty sets compare as ordered.
bool sinkset_precedes(const SinkSet& a, const SinkSet& b);

/// Per-output-port valencies of all balancers. valencies[b][p] = Val of
/// output wire p of balancer b.
std::vector<std::vector<SinkSet>> output_valencies(const Network& net);

/// Val(b) of every balancer b: the union of its output valencies, given
/// output_valencies(net).
std::vector<SinkSet> balancer_valencies(
    const std::vector<std::vector<SinkSet>>& valencies);

/// Univalence / total-ordering predicates given precomputed valencies.
bool is_univalent(const std::vector<SinkSet>& port_valencies);
bool is_totally_ordering(const std::vector<SinkSet>& port_valencies);

/// The split layer of the subnetwork serving one sink group: an element
/// S^(k) of the split sequence, or a group of SplitPlan's split tree.
struct SplitLevel {
  std::uint32_t start_layer = 1;   ///< First absolute layer (1-based).
  std::uint32_t depth = 0;         ///< Layers spanned: d(G) - start_layer + 1.
  std::uint32_t split_depth = 0;   ///< sd relative to this subnetwork (1-based).
  std::uint32_t split_layer_abs = 0;  ///< start_layer + split_depth - 1.
  bool complete = false;              ///< Every split-layer balancer covers all sinks.
  bool uniformly_splittable = false;  ///< Equal-size port valencies at the split layer.
  std::vector<NodeIndex> split_layer_balancers;  ///< Members of the split layer.
  SinkSet sinks;                      ///< Sinks served by this subnetwork.
};

/// The split layer of the subnetwork serving `sinks`, searched from
/// absolute layer `start_layer` down: the least layer whose members are
/// all totally ordering, where a member is a balancer whose valency lies
/// inside `sinks`. `valencies` is output_valencies(net) and `balancer_val`
/// its balancer_valencies. Empty when no layer qualifies.
std::optional<SplitLevel> find_split_level(
    const Network& net, const std::vector<std::vector<SinkSet>>& valencies,
    const std::vector<SinkSet>& balancer_val, const SinkSet& sinks,
    std::uint32_t start_layer);

/// Computes the split sequence of a uniform counting network
/// (paper Propositions 5.6-5.10 machinery).
class SplitAnalysis {
 public:
  explicit SplitAnalysis(const Network& net);

  /// False when some level has no totally ordering layer (e.g. the
  /// counting tree, whose toggles interleave sink parities); in that case
  /// levels() holds the levels found before the failure.
  bool applicable() const noexcept { return applicable_; }

  const std::vector<SplitLevel>& levels() const noexcept { return levels_; }

  /// Split number sp(G): the length of the split sequence.
  std::uint32_t split_number() const noexcept {
    return static_cast<std::uint32_t>(levels_.size());
  }

  /// Split depth sd(G) of the whole network. Requires applicable().
  std::uint32_t split_depth() const { return levels_.at(0).split_depth; }

  /// Every element but the last of the split sequence is complete.
  bool continuously_complete() const;
  /// Every element but the last is uniformly splittable.
  bool continuously_uniformly_splittable() const;

  /// Absolute layer (1-based) of the ℓ-th split layer, 1 <= ell <= sp(G).
  std::uint32_t split_layer_abs(std::uint32_t ell) const {
    return levels_.at(ell - 1).split_layer_abs;
  }

  /// Wire hops from the ℓ-th split layer to the counters — the quantity
  /// Theorem 5.11 calls d(S^(ℓ)(G)). See file header note.
  std::uint32_t race_depth(std::uint32_t ell) const {
    return depth_ + 1 - split_layer_abs(ell);
  }

 private:
  std::uint32_t depth_ = 0;
  bool applicable_ = true;
  std::vector<SplitLevel> levels_;
};

}  // namespace cn
