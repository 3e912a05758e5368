#include "core/structure.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/valency.hpp"

namespace cn {

std::uint32_t shallowness(const Network& net) {
  // Shortest source->balancer distance, by layer order (edges only go to
  // deeper layers, so a pass in depth order is enough).
  std::vector<std::uint32_t> sdist(net.num_balancers(), 0);
  std::vector<NodeIndex> order(net.num_balancers());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](NodeIndex a, NodeIndex b) {
    return net.balancer_depth(a) < net.balancer_depth(b);
  });
  for (const NodeIndex b : order) {
    std::uint32_t best = UINT32_MAX;
    for (const WireIndex w : net.balancer(b).in) {
      const Endpoint& from = net.wire(w).from;
      const std::uint32_t dist =
          from.kind == Endpoint::Kind::kSource ? 0 : sdist[from.index];
      best = std::min(best, dist);
    }
    sdist[b] = best + 1;
  }
  std::uint32_t s = UINT32_MAX;
  for (std::uint32_t j = 0; j < net.fan_out(); ++j) {
    const Endpoint& from = net.wire(net.sink_wire(j)).from;
    s = std::min(s, from.kind == Endpoint::Kind::kSource ? 0 : sdist[from.index]);
  }
  return s;
}

std::uint32_t influence_radius(const Network& net) {
  // For each pair of output wires (j, k), find the deepest balancer whose
  // valency contains both; the distance from that balancer to output j in
  // a uniform network is d(G) + 1 - depth(balancer) wire hops.
  const std::vector<SinkSet> val = balancer_valencies(output_valencies(net));
  std::vector<NodeIndex> order(net.num_balancers());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](NodeIndex a, NodeIndex b) {
    return net.balancer_depth(a) > net.balancer_depth(b);
  });
  std::uint32_t irad = 0;
  const std::uint32_t w_out = net.fan_out();
  for (std::uint32_t j = 0; j < w_out; ++j) {
    for (std::uint32_t k = j + 1; k < w_out; ++k) {
      for (const NodeIndex b : order) {
        const bool has_j = (val[b][j / 64] >> (j % 64)) & 1;
        const bool has_k = (val[b][k / 64] >> (k % 64)) & 1;
        if (has_j && has_k) {
          irad = std::max(irad, net.depth() + 1 - net.balancer_depth(b));
          break;
        }
      }
    }
  }
  return irad;
}

bool all_inputs_reach_all_outputs(const Network& net) {
  const std::vector<SinkSet> val = balancer_valencies(output_valencies(net));
  for (std::uint32_t i = 0; i < net.fan_in(); ++i) {
    const Endpoint& to = net.wire(net.source_wire(i)).to;
    const std::uint32_t reached =
        to.kind == Endpoint::Kind::kSink ? 1 : sinkset_count(val[to.index]);
    if (reached != net.fan_out()) return false;
  }
  return true;
}

}  // namespace cn
