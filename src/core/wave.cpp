#include "core/wave.hpp"

namespace cn {

WavePlan::WavePlan(const CompiledNetwork& net) : net_(&net) {
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

  if (uniform_) {
    // Ascending wire order within each level: the canonical slot order.
    wires_at_.assign(depth_ + 1, {});
    for (WireIndex w = 0; w < net.num_wires(); ++w) {
      if (level_of_wire_[w] != kUnleveled) {
        wires_at_[level_of_wire_[w]].push_back(w);
      }
    }
  }
}

void step_wave(const CompiledNetwork& net, CompiledState& state,
               std::span<const std::uint32_t> tokens,
               std::span<WireIndex> wire) {
  for (const std::uint32_t t : tokens) {
    const CompiledNetwork::Route& r = net.route(wire[t]);
    const std::uint64_t through = state.bal_through[r.node]++;
    wire[t] = net.out_wire_at(r.out_base + net.port_of(r, through));
  }
}

template <std::uint32_t W>
std::unique_ptr<WidthWaves<W>> WidthWaves<W>::try_build(const WavePlan& plan) {
  const CompiledNetwork& net = plan.compiled();
  if (!plan.uniform() || net.fan_in() != W || net.fan_out() != W) {
    return nullptr;
  }
  const std::uint32_t d = plan.depth();
  for (std::uint32_t l = 0; l <= d; ++l) {
    if (plan.wires_at(l).size() != W) return nullptr;
  }

  auto waves = std::unique_ptr<WidthWaves>(new WidthWaves());
  waves->depth_ = d;
  waves->levels_.resize(d);
  waves->wire_of_.resize(d + 1);

  // Each wire has exactly one level, so one flat map serves all levels.
  std::vector<std::uint32_t> slot_of(net.num_wires(), 0);
  for (std::uint32_t l = 0; l <= d; ++l) {
    const std::vector<WireIndex>& wires = plan.wires_at(l);
    for (std::uint32_t s = 0; s < W; ++s) {
      slot_of[wires[s]] = s;
      waves->wire_of_[l][s] = wires[s];
    }
  }

  for (std::uint32_t l = 0; l < d; ++l) {
    const std::vector<WireIndex>& wires = plan.wires_at(l);
    Level& lv = waves->levels_[l];
    for (std::uint32_t s = 0; s < W; ++s) {
      const CompiledNetwork::Route& r = net.route(wires[s]);
      if (r.is_sink || r.rr_mask != 1) return nullptr;
      lv.node[s] = r.node;
      for (std::uint32_t p = 0; p < 2; ++p) {
        const WireIndex ow = net.out_wire_at(r.out_base + p);
        if (plan.level_of_wire(ow) != l + 1) return nullptr;
        lv.out[2 * s + p] = slot_of[ow];
      }
    }
  }
  for (std::uint32_t s = 0; s < W; ++s) {
    const CompiledNetwork::Route& r = net.route(plan.wires_at(d)[s]);
    if (!r.is_sink) return nullptr;
    waves->sink_[s] = r.node;
  }
  for (std::uint32_t i = 0; i < W; ++i) {
    const WireIndex w = net.source_wire(i);
    if (plan.level_of_wire(w) != 0) return nullptr;
    waves->entry_[i] = slot_of[w];
  }
  return waves;
}

template class WidthWaves<8>;
template class WidthWaves<32>;
template class WidthWaves<64>;

}  // namespace cn
