// Single-writer batched traversal over the compiled routing tables.
//
// A counting-service shard has exactly one writer at a time — its worker
// thread — so its network needs none of ConcurrentNetwork's atomics. What
// it does need is to push a whole drained batch, spread over the entry
// wires in the shard's feed order, through the network at once. All the
// batch's per-entry counts are injected before one layer-by-layer pass.
// ConcurrentNetwork::increment_batch splits a batch depth-first and
// never merges the pieces again: sub-batches that reconverge on a
// balancer each pay their own claim there. BatchTraversal instead moves
// TOKEN COUNTS layer by layer over the network's longest-path layering
// (Network::balancer_depth, paper Section 2.5). Every balancer of a layer
// has all of its predecessors in earlier layers, so by the time a layer is
// processed every sub-batch converging on one of its balancers has
// arrived; the balancer sums them into m tokens, claims positions
// t..t+m-1 with ONE plain add on CompiledState::bal_through, and the
// mod-f round-robin rule splits the m tokens across its ports (port
// (t+i) mod f for i in [0, m)). Each reached sink then hands out its run
// of values from CompiledState::counter_next.
//
// Why the result is the sequential one: a balancer's per-port totals
// depend only on how many tokens crossed it, not on the order in which
// sub-batches claimed their positions. So after a batch of k tokens every
// balancer's throughput, every sink's count, and the multiset of issued
// values equal those of k sequential single-token traversals entering in
// feed order (tests/concurrent_test.cpp checks this differentially).
// That needs no uniformity, power-of-two fan-out or counting-network
// precondition: any DAG the Network constructor accepts works, including
// the extracted subnetworks the elastic service runs.
//
// Only REACHED balancers are visited, through flat per-layer worklists, so
// a batch costs one visit per reached balancer and sink — a single token
// is a straight walk down its path.
//
// The batch's values come out in ascending order. With the step property
// they are a contiguous range, so each sink's run is scattered straight
// into place; other networks fall back to a sort.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/compiled.hpp"
#include "core/topology.hpp"

namespace cn {

/// A counting network owned by one writer. NOT thread-safe: every call
/// must be ordered by happens-before (one thread, or a thread join
/// between writers) — the counting service's shard handoff guarantees
/// exactly that.
class BatchTraversal {
 public:
  /// `compiled` (and the Network behind it) must outlive the traversal;
  /// any number of traversals may share one CompiledNetwork.
  explicit BatchTraversal(const CompiledNetwork& compiled);

  /// Shepherds `k` tokens over the input wires `feed` (non-empty, each
  /// < fan_in; one wire is a one-entry feed): token i enters on
  /// feed[(cursor + i) mod feed.size()]. Writes the k values they
  /// received to out[0..k) in ascending order. Leaves the network in
  /// exactly the state k sequential single-token traversals in that
  /// order would; when the network counts under the feed the values are
  /// also exactly the sequence those traversals return (T..T+k-1 after
  /// T tokens), so a caller handing them out in arrival order serves its
  /// batch first-in, first-out.
  void increment_batch(std::span<const std::uint32_t> feed,
                       std::uint64_t cursor, std::uint32_t k,
                       Value* out) noexcept;

  /// Tokens that have passed through balancer `b` so far.
  std::uint64_t balancer_through(NodeIndex b) const {
    return state_.bal_through.at(b);
  }

  /// How many tokens have exited through each counter.
  std::vector<std::uint64_t> sink_counts() const;

  /// Total values handed out so far (sum of sink counts).
  std::uint64_t total() const;

 private:
  /// Adds `count` tokens arriving on the wire whose route is `r`,
  /// queueing its balancer (or sink) the first time this batch reaches
  /// it.
  void arrive(const CompiledNetwork::Route& r, std::uint32_t count) noexcept;

  const CompiledNetwork* compiled_;
  CompiledState state_;
  /// Static per network: each balancer's 0-based layer, and each layer's
  /// slice of work_ (layer_begin_[l] .. layer_begin_[l + 1]).
  std::vector<std::uint32_t> layer_of_;
  std::vector<std::uint32_t> layer_begin_;
  /// Per-batch scratch, empty again whenever increment_batch returns:
  /// the routes of reached balancers bucketed by layer, the tokens
  /// converging on each balancer / sink, and the reached sinks.
  std::vector<CompiledNetwork::Route> work_;
  std::vector<std::uint32_t> layer_fill_;
  std::vector<std::uint32_t> pending_;
  std::vector<std::uint32_t> sink_pending_;
  std::vector<std::uint32_t> sinks_reached_;
  std::uint32_t num_sinks_reached_ = 0;
};

}  // namespace cn
