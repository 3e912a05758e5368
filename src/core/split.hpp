// SplitPlan: certified elastic decomposition of a counting network
// (paper Propositions 5.6-5.10 + Lemma 3.1).
//
// SplitAnalysis (core/valency.hpp) walks the split SEQUENCE — it chops
// the network at its split layer and follows only the bottom part,
// which is all Theorem 5.11's timing condition needs. Resharding needs
// the full split TREE: at level ell a continuously uniformly splittable
// network decomposes into 2^ell INDEPENDENT subnetworks of width
// w / 2^ell, each a counting network in its own right, serving disjoint
// sink groups. SplitPlan certifies that decomposition level by level
// (every group's split layer, found by the same find_split_level that
// SplitAnalysis follows, must be complete and uniformly splittable,
// exactly the Props 5.6-5.10 machinery) and
// EXTRACTS the 2^ell subnetworks as standalone Network values, with the
// maps back into the full network (balancers, sinks, entry wires) that
// the differential tests use.
//
// The elastic service pairs subnetwork r at level ell with the tickets
// ≡ r (mod 2^ell): by Lemma 3.1's modular counting, subnetwork r's j-th
// token is the full network's value j * 2^ell + r exiting full sink
// (j * 2^ell + r) mod w (util/residue.hpp::embed_sink). split_test.cpp
// verifies both faces differentially: the value/sink sequence of the
// standalone subnetwork embeds to exactly the residue-restricted
// subsequence of the full sequential traversal, and the subnetwork's
// internal balancer counts reproduce the full network's counts below
// the split layer when fed the same per-entry-wire token counts.
//
// Structural certification is NOT the same as arbitrary-input counting.
// A split part is the TAIL of a merger cascade: embedded below the
// split layer it only ever sees the balanced entry patterns the
// split-layer balancers produce, and on those it counts — but it is not
// a counting network under arbitrary input distributions (skewed entry
// counts break the step property, for B(w)'s parts as much as P(w)'s;
// split_test.cpp demonstrates both). Each Subnetwork therefore carries
// its feed order: the per-cycle entry permutation the full network
// delivers to it, recorded from a sequential simulation. Fed in
// balanced cyclic feed order — per-entry counts as equal as possible,
// skew following the feed order prefix — a part's quiescent outputs
// keep the step property, so its issued value set stays gap-free
// 0..k-1. verify_extraction() proves that discipline per part: every
// feed-order prefix count vector passes check_counting, and one full
// cycle returns every balancer to its initial position (which lifts the
// prefix checks to all token counts by induction). The elastic service
// feeds shards exactly this way and only resizes within
// operational_max_level().
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/topology.hpp"
#include "core/valency.hpp"

namespace cn {

/// One extracted subnetwork at some split level, with its embedding
/// back into the full network.
struct Subnetwork {
  std::shared_ptr<const Network> net;  ///< Standalone counting network.
  /// Local sink u -> full-network sink (ascending; equals the group's
  /// sink set enumerated in order).
  std::vector<std::uint32_t> sinks;
  /// Local balancer index -> full-network balancer index (ascending).
  std::vector<NodeIndex> balancers;
  /// Local source i -> the full-network wire that feeds it (the wire
  /// crossing INTO the group; its producer is a split-layer balancer of
  /// the enclosing level, or a network source at level 0). Canonically
  /// ordered by full wire index.
  std::vector<WireIndex> entry_wires;
  /// The per-cycle entry permutation: during one w-token round-robin
  /// cycle of the full network every entry wire of this group receives
  /// exactly one token, and feed_order[j] is the local source that
  /// receives the j-th of them. Feeding the standalone part in this
  /// cyclic order (per-entry counts equal up to a feed_order prefix)
  /// reproduces the balanced input pattern the split layer delivers,
  /// which is what makes the part count. Recorded from a sequential
  /// simulation of the full network at extraction time.
  std::vector<std::uint32_t> feed_order;
};

/// Certifies continuous uniform splittability and extracts the split
/// tree's subnetworks. Construction cost is one valency pass plus one
/// split-level search (find_split_level) per group of the split tree;
/// extraction allocates fresh Networks. `net` must outlive the plan.
class SplitPlan {
 public:
  explicit SplitPlan(const Network& net);

  const Network& network() const noexcept { return *net_; }
  std::uint32_t width() const noexcept { return net_->fan_out(); }

  /// True when at least one split level is certified: every group's
  /// split layer down to max_level() was complete + uniformly splittable
  /// (the network is continuously uniformly splittable down to it).
  bool applicable() const noexcept { return max_level_ > 0; }

  /// Deepest usable split level: extract(ell) is valid for
  /// 0 <= ell <= max_level(). Equals the paper's split number sp(G)
  /// for B(w) and P(w) (= lg w).
  std::uint32_t max_level() const noexcept { return max_level_; }

  /// Split depth sd(G): absolute 1-based layer of the first split
  /// (paper: sd(B(w)) = (lg^2 w - lg w + 2)/2, sd(P(w)) =
  /// lg^2 w - lg w + 1). Requires max_level() >= 1.
  std::uint32_t split_depth() const { return split_layer_abs(1); }

  /// Absolute layer of the ell-th split, 1 <= ell <= max_level(): the
  /// layer whose balancers route between the level-ell groups. All
  /// groups of one level split at the same layer in a uniform network;
  /// certification rejects networks where they differ.
  std::uint32_t split_layer_abs(std::uint32_t ell) const {
    return level_split_layer_.at(ell);
  }

  /// Why certification stopped before the groups reached single sinks:
  /// empty for B(w) and P(w), never empty when applicable() is false.
  const std::string& reason() const noexcept { return reason_; }

  /// Sink groups at level ell (2^ell sets, ascending by smallest sink).
  /// Group r serves residue class r in the elastic service.
  const std::vector<SinkSet>& groups(std::uint32_t ell) const {
    return level_groups_.at(ell);
  }

  /// Extracts the 2^ell standalone subnetworks at level ell, in group
  /// order (ascending sinks = residue class order). extract(0) rebuilds
  /// the whole network. Requires ell <= max_level().
  std::vector<Subnetwork> extract(std::uint32_t ell) const;

 private:
  Subnetwork extract_group(const SinkSet& sinks, std::uint32_t ell,
                           std::uint32_t group) const;

  const Network* net_;
  std::vector<SinkSet> balancer_valency_;
  std::uint32_t max_level_ = 0;
  std::string reason_;
  /// level_groups_[ell] = the 2^ell sink groups; [0] = the full set.
  std::vector<std::vector<SinkSet>> level_groups_;
  /// level_split_layer_[ell] = absolute layer of the ell-th split
  /// (index 0 unused).
  std::vector<std::uint32_t> level_split_layer_;
};

/// Empty when every subnetwork at levels 1..max_ell provably counts
/// under balanced cyclic feeding; otherwise a human-readable reason
/// naming the first failing part. Per part of width m it checks:
/// feed_order is a permutation and repeats identically over two full
/// cycles of the full network; every feed-order prefix count vector
/// (k = 1..2m tokens, one per entry in cyclic feed order) passes
/// check_counting; and one balanced cycle returns every balancer to
/// its initial round-robin position. The last check lifts the prefix
/// checks to arbitrary token counts: quiescent outputs depend only on
/// per-entry counts, and after each full cycle the balancer state
/// repeats while every counter has advanced uniformly by one. This is
/// the operational gate the elastic service's validate() runs before
/// admitting a split level.
std::string verify_extraction(const SplitPlan& plan, std::uint32_t max_ell);

/// Deepest level L such that every level 1..L passes verify_extraction
/// (0 when even level 1 fails or the plan is not applicable). The
/// elastic service resizes within this bound (= lg w for B(w), P(w)).
std::uint32_t operational_max_level(const SplitPlan& plan);

}  // namespace cn
