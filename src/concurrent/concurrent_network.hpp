// Shared-memory implementation of counting networks (paper Section 2.7):
// balancers are records updated atomically, wires are pointers, and each
// process shepherds tokens from its input wire to a counter.
//
// A balancer with fan-out f is a mod-f round-robin dispenser; a single
// fetch_add on a 64-bit counter implements it wait-free (the classic
// shared-memory balancer). Sink counters stride by the network fan-out.
//
// Memory ordering. Balancer RMWs are RELAXED: a balancer's counter is
// pure routing state — the fetched position selects an output port and
// publishes nothing else, and the counting argument (every fetch_add
// returns a distinct position, so any m tokens through a fan-out-f
// balancer leave ceil(m/f)/floor(m/f)-balanced per port) needs only RMW
// atomicity, which relaxed provides. The sink counters KEEP acq_rel:
// the counter step is the operation's linearization point, and the
// release/acquire pairing is what orders a caller's surrounding writes
// against a later caller that observes a larger value (e.g. the
// id-allocator example). Validated under the CI TSan job.
//
// Batched traversal (increment_batch): a balancer is a mod-f dispenser,
// so k tokens occupying k CONSECUTIVE positions — obtained with ONE
// fetch_add(k) — leave with the same per-port counts as k sequential
// single-token traversals: port (pos+i) mod f for i in [0,k). The batch
// therefore splits into at most f sub-batches per balancer and each
// sub-batch carries its whole count down its wire: one RMW per
// sub-batch per balancer it reaches instead of one per token. The split
// is depth-first and never re-merges sub-batches that reconverge, so a
// batch fans out into up to k single-token paths: a 32-token batch on
// B(8) pays 95 RMWs (63 balancer + 32 counter), about 3 per token. The
// single-writer shards of the counting service use the merging
// traversal in core/batch_traversal.hpp instead.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/sequential.hpp"
#include "core/topology.hpp"
#include "util/cacheline.hpp"

namespace cn {

/// Cache-line padded atomic counter, to keep balancers that are logically
/// independent from false-sharing each other.
struct alignas(kCacheLineSize) PaddedAtomic {
  std::atomic<std::uint64_t> value{0};
};

/// A counting network instantiated in shared memory. Thread-safe: any
/// number of threads may call increment / increment_batch concurrently.
class ConcurrentNetwork {
 public:
  explicit ConcurrentNetwork(const Network& net);

  ConcurrentNetwork(const ConcurrentNetwork&) = delete;
  ConcurrentNetwork& operator=(const ConcurrentNetwork&) = delete;

  const Network& network() const noexcept { return *net_; }

  /// Shepherds one token from input wire `source` through the network and
  /// returns the value its counter assigned. Wait-free: one fetch_add per
  /// balancer plus one at the counter.
  Value increment(std::uint32_t source) noexcept {
    return increment_interruptible(source, [](std::uint32_t) { return true; });
  }

  /// Shepherds a batch of `k` tokens entering together on input wire
  /// `source` and writes the k values they received to out_values[0..k).
  /// Each balancer crossed performs ONE fetch_add(k_sub) for the whole
  /// sub-batch reaching it and splits the k_sub consecutive positions
  /// across its output wires per the mod-f dispenser; each counter
  /// reached performs one fetch_add for its sub-batch and hands out
  /// consecutive strided values. Byte-compatible counting: the tokens
  /// through every balancer port — and hence every balancer's step count
  /// and every sink's total — are identical to k sequential increment()
  /// calls from the same state (differentially tested against the
  /// sequential spec). Values are written in deterministic
  /// port-round-robin DFS order; their assignment to the k callers is up
  /// to the caller (the service hands them to queued requests in order).
  /// Wait-free; safe to mix freely with concurrent increment() calls.
  void increment_batch(std::uint32_t source, std::uint32_t k,
                       Value* out_values) noexcept;

  /// Sentinel returned by increment_interruptible for an abandoned token.
  static constexpr Value kAbandonedToken = static_cast<Value>(-1);

  /// Like increment, but calls `pacer(hop_index)` before every node
  /// crossing (hop 0 = first balancer), e.g. to impose wire-delay
  /// envelopes [c_min, c_max] on real threads. The pacer may abort the
  /// traversal by returning false: the token is abandoned mid-network.
  /// Balancer steps already taken are NOT undone — exactly the footprint
  /// of a process that crashes between hops, leaving the network in a
  /// state other tokens must route around. Returns kAbandonedToken when
  /// aborted.
  template <typename Pacer>
  Value increment_interruptible(std::uint32_t source, Pacer&& pacer) noexcept {
    const Network& net = *net_;
    WireIndex wire = net.source_wire(source);
    std::uint32_t hop = 0;
    for (;;) {
      const Wire& w = net.wire(wire);
      if (!pacer(hop++)) return kAbandonedToken;
      if (w.to.kind == Endpoint::Kind::kBalancer) {
        const NodeIndex b = w.to.index;
        const Balancer& bal = net.balancer(b);
        const std::uint64_t pos =
            balancers_[b].value.fetch_add(1, std::memory_order_relaxed);
        wire = bal.out[pos % bal.fan_out()];
      } else {
        const std::uint64_t k =
            counters_[w.to.index].value.fetch_add(1, std::memory_order_acq_rel);
        return w.to.index + k * net.fan_out();
      }
    }
  }

  /// Tokens that have passed through balancer `b` so far (the balancer's
  /// step count). Only meaningful at quiescence.
  std::uint64_t balancer_through(NodeIndex b) const {
    return balancers_.at(b).value.load(std::memory_order_relaxed);
  }

  /// Snapshot of how many tokens have exited through each counter. Only
  /// meaningful at quiescence (no concurrent increments).
  std::vector<std::uint64_t> sink_counts() const;

  /// Total values handed out so far (sum of sink counts).
  std::uint64_t total() const;

 private:
  /// Shepherds a sub-batch of `k` tokens down `wire`; writes the k values
  /// to `out` and returns out + k. Recursion depth is bounded by the
  /// network depth (one frame per balancer split with >= 2 live ports).
  Value* run_batch(WireIndex wire, std::uint32_t k, Value* out) noexcept;

  const Network* net_;
  std::vector<PaddedAtomic> balancers_;
  std::vector<PaddedAtomic> counters_;
};

}  // namespace cn
