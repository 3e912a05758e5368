#include "core/wave.hpp"

namespace cn {

WavePlan::WavePlan(const CompiledNetwork& net) {
  level_of_wire_.assign(net.num_wires(), kUnleveled);
  std::vector<std::uint32_t> bal_level(net.num_balancers(), kUnleveled);

  // Worklist propagation from the source wires. A balancer's level is the
  // level of its first-seen in-wire; its out-wires go one level deeper.
  // Every later in-wire must agree, and every counter must be reached at
  // one common level — otherwise path lengths differ and the network is
  // not uniform (the wave unit "all tokens at level l" is ill-defined).
  std::vector<WireIndex> work;
  work.reserve(net.num_wires());
  for (std::uint32_t i = 0; i < net.fan_in(); ++i) {
    const WireIndex w = net.source_wire(i);
    if (level_of_wire_[w] == kUnleveled) {
      level_of_wire_[w] = 0;
      work.push_back(w);
    }
  }

  bool any_sink = false;
  for (std::size_t k = 0; k < work.size(); ++k) {
    const WireIndex w = work[k];
    const std::uint32_t lvl = level_of_wire_[w];
    const CompiledNetwork::Route& r = net.route(w);
    if (r.is_sink) {
      if (!any_sink) {
        any_sink = true;
        depth_ = lvl;
      } else if (depth_ != lvl) {
        uniform_ = false;
      }
      continue;
    }
    if (bal_level[r.node] == kUnleveled) {
      bal_level[r.node] = lvl;
      const PortIndex fan_out = net.balancer_fan_out(r.node);
      for (PortIndex j = 0; j < fan_out; ++j) {
        const WireIndex ow = net.out_wire(r.node, j);
        level_of_wire_[ow] = lvl + 1;
        work.push_back(ow);
      }
    } else if (bal_level[r.node] != lvl) {
      uniform_ = false;
    }
  }
  if (!any_sink) uniform_ = false;
}

void step_wave(const CompiledNetwork& net, CompiledState& state,
               std::span<const std::uint32_t> tokens,
               std::span<WireIndex> wire) {
  for (const std::uint32_t t : tokens) {
    wire[t] = cross_balancer(net, state, net.route(wire[t]));
  }
}

}  // namespace cn
