#include "core/batch_traversal.hpp"

#include <algorithm>

#include "util/bits.hpp"

namespace cn {

BatchTraversal::BatchTraversal(const CompiledNetwork& compiled)
    : compiled_(&compiled),
      state_(compiled),
      layer_of_(compiled.num_balancers(), 0),
      layer_begin_(compiled.network().num_layers() + 1, 0),
      work_(compiled.num_balancers()),
      layer_fill_(compiled.network().num_layers(), 0),
      pending_(compiled.num_balancers(), 0),
      sink_pending_(compiled.fan_out(), 0),
      sinks_reached_(compiled.fan_out(), 0) {
  const Network& net = compiled.network();
  for (std::uint32_t l = 0; l < net.num_layers(); ++l) {
    const std::vector<NodeIndex>& layer = net.layer(l + 1);
    layer_begin_[l + 1] =
        layer_begin_[l] + static_cast<std::uint32_t>(layer.size());
    for (const NodeIndex b : layer) layer_of_[b] = l;
  }
}

void BatchTraversal::arrive(const CompiledNetwork::Route& r,
                            std::uint32_t count) noexcept {
  if (r.is_sink) {
    if (sink_pending_[r.node] == 0) {
      sinks_reached_[num_sinks_reached_++] = r.node;
    }
    sink_pending_[r.node] += count;
    return;
  }
  if (pending_[r.node] == 0) {
    const std::uint32_t l = layer_of_[r.node];
    work_[layer_begin_[l] + layer_fill_[l]++] = r;
  }
  pending_[r.node] += count;
}

void BatchTraversal::increment_batch(std::span<const std::uint32_t> feed,
                                     std::uint64_t cursor, std::uint32_t k,
                                     Value* out) noexcept {
  if (k == 0) return;
  const CompiledNetwork& net = *compiled_;
  // Token i enters on feed[(cursor + i) mod e], so from the cursor on the
  // first k mod e entries get ceil(k / e) tokens and the rest floor(k / e).
  const auto e = static_cast<std::uint32_t>(feed.size());
  auto at = static_cast<std::uint32_t>(cursor % e);
  for (std::uint32_t u = 0; u < e && u < k; ++u) {
    const std::uint32_t c = k / e + (u < k % e ? 1 : 0);
    state_.source_count[feed[at]] += c;
    arrive(net.route(net.source_wire(feed[at])), c);
    if (++at == e) at = 0;
  }
  // Longest-path layering: every arrival at layer l comes from a layer
  // < l, so when layer l is processed each of its queued balancers holds
  // the sum of all the sub-batches converging on it this batch.
  const auto layers = static_cast<std::uint32_t>(layer_fill_.size());
  for (std::uint32_t l = 0; l < layers; ++l) {
    const std::uint32_t queued = layer_fill_[l];
    if (queued == 0) continue;
    layer_fill_[l] = 0;
    const CompiledNetwork::Route* routes = work_.data() + layer_begin_[l];
    for (std::uint32_t q = 0; q < queued; ++q) {
      const CompiledNetwork::Route r = routes[q];
      const std::uint32_t m = pending_[r.node];
      pending_[r.node] = 0;
      // ONE claim of positions t..t+m-1. Position t + i leaves on port
      // (t + i) mod f, so starting at port t mod f the first m mod f
      // ports in round-robin order get ceil(m / f) tokens and the rest
      // floor(m / f).
      std::uint64_t& through = state_.bal_through[r.node];
      std::uint32_t port = net.port_of(r, through);
      through += m;
      std::uint32_t f;
      std::uint32_t each;
      std::uint32_t extra;
      if (r.rr_mask != CompiledNetwork::kNoMask) {
        f = r.rr_mask + 1u;
        each = m >> log2_exact(f);
        extra = m & r.rr_mask;
      } else {
        f = net.balancer_fan_out(r.node);
        each = m / f;
        extra = m % f;
      }
      const std::uint32_t ports = each > 0 ? f : extra;
      for (std::uint32_t d = 0; d < ports; ++d) {
        arrive(net.out_route_at(r.out_base + port), each + (d < extra ? 1 : 0));
        if (++port == f) port = 0;
      }
    }
  }
  // Each reached sink s hands out the run counter_next[s] + i * stride,
  // i < sink_pending_[s]. Values go out ascending. When the batch's
  // values are exactly lo..lo+k-1 — always, for a network that counts
  // under its feed, with a single writer — value v simply lands at
  // out[v - lo]; otherwise the runs are written back to back and sorted.
  const std::uint64_t stride = net.fan_out();
  Value lo = ~Value{0};
  Value hi = 0;
  for (std::uint32_t i = 0; i < num_sinks_reached_; ++i) {
    const std::uint32_t s = sinks_reached_[i];
    const Value first = state_.counter_next[s];
    lo = std::min(lo, first);
    hi = std::max(hi, first + (sink_pending_[s] - 1) * stride);
  }
  const bool contiguous = hi - lo == k - 1;
  Value* next = out;
  for (std::uint32_t i = 0; i < num_sinks_reached_; ++i) {
    const std::uint32_t s = sinks_reached_[i];
    const std::uint32_t c = sink_pending_[s];
    sink_pending_[s] = 0;
    Value v = state_.counter_next[s];
    if (contiguous) {
      for (std::uint32_t t = 0; t < c; ++t, v += stride) out[v - lo] = v;
    } else {
      for (std::uint32_t t = 0; t < c; ++t, v += stride) *next++ = v;
    }
    state_.counter_next[s] = v;
  }
  num_sinks_reached_ = 0;
  if (!contiguous) std::sort(out, out + k);
}

std::vector<std::uint64_t> BatchTraversal::sink_counts() const {
  const std::uint32_t w = compiled_->fan_out();
  std::vector<std::uint64_t> counts(w);
  for (std::uint32_t j = 0; j < w; ++j) {
    counts[j] = (state_.counter_next[j] - j) / w;
  }
  return counts;
}

std::uint64_t BatchTraversal::total() const {
  std::uint64_t sum = 0;
  for (const std::uint64_t c : sink_counts()) sum += c;
  return sum;
}

}  // namespace cn
