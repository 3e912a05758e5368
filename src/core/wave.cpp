#include "core/wave.hpp"

namespace cn {

void step_wave(const CompiledNetwork& net, CompiledState& state,
               std::span<const std::uint32_t> tokens,
               std::span<WireIndex> wire) {
  for (const std::uint32_t t : tokens) {
    wire[t] = cross_balancer(net, state, net.route(wire[t]));
  }
}

}  // namespace cn
