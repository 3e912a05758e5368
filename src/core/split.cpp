#include "core/split.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/sequential.hpp"
#include "core/verify.hpp"

namespace cn {

namespace {

/// Group under descent: its sink set plus the first layer that can
/// still contain its balancers.
struct LevelGroup {
  SinkSet sinks;
  std::uint32_t start_layer = 1;
};

std::vector<std::uint32_t> sinkset_members(const SinkSet& s) {
  std::vector<std::uint32_t> out;
  for (std::size_t word = 0; word < s.size(); ++word) {
    std::uint64_t bits = s[word];
    while (bits != 0) {
      const auto bit = static_cast<std::uint32_t>(__builtin_ctzll(bits));
      out.push_back(static_cast<std::uint32_t>(word * 64 + bit));
      bits &= bits - 1;
    }
  }
  return out;
}

constexpr std::uint32_t kNoGroup = 0xffffffffu;

/// Per group, the order in which its entry wires receive tokens during
/// `cycles` round-robin cycles of the full network (token t enters
/// source t mod w, traverses sequentially). The entry wires of a level
/// form a cut, so every token crosses exactly one of them; a certified
/// split delivers exactly one token per entry wire per cycle.
std::vector<std::vector<std::uint32_t>> record_entry_order(
    const Network& net, const std::vector<Subnetwork>& subs,
    std::uint32_t cycles) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> entry_of(
      net.num_wires(), {kNoGroup, 0});
  for (std::uint32_t g = 0; g < subs.size(); ++g) {
    for (std::uint32_t i = 0; i < subs[g].entry_wires.size(); ++i) {
      entry_of[subs[g].entry_wires[i]] = {g, i};
    }
  }
  std::vector<WireIndex> source_wire(net.fan_in(), kInvalidWire);
  for (WireIndex w = 0; w < net.num_wires(); ++w) {
    if (net.wire(w).from.kind == Endpoint::Kind::kSource) {
      source_wire[net.wire(w).from.index] = w;
    }
  }

  std::vector<std::vector<std::uint32_t>> order(subs.size());
  NetworkState st(net);
  const std::uint32_t width = net.fan_out();
  for (std::uint64_t t = 0;
       t < static_cast<std::uint64_t>(cycles) * width; ++t) {
    const auto src = static_cast<std::uint32_t>(t % width);
    st.enter(t, 0, src);
    // At level 0 the entry wires ARE the source wires; the token crosses
    // one on entry, before any balancer step.
    const auto& at_src = entry_of[source_wire[src]];
    if (at_src.first != kNoGroup) order[at_src.first].push_back(at_src.second);
    while (!st.done(t)) {
      const Step s = st.step(t);
      if (s.kind != Step::Kind::kBalancer) continue;
      const WireIndex out = net.balancer(s.node).out[s.out_port];
      const auto& e = entry_of[out];
      if (e.first != kNoGroup) order[e.first].push_back(e.second);
    }
  }
  return order;
}

}  // namespace

SplitPlan::SplitPlan(const Network& net) : net_(&net) {
  const auto valencies = output_valencies(net);
  balancer_valency_ = balancer_valencies(valencies);
  const std::size_t words = (net.fan_out() + 63) / 64;
  SinkSet all(words, 0);
  for (std::uint32_t j = 0; j < net.fan_out(); ++j) {
    all[j / 64] |= 1ull << (j % 64);
  }
  std::vector<LevelGroup> groups{LevelGroup{all, 1}};
  level_groups_.push_back({all});
  level_split_layer_.push_back(0);  // Index 0 unused.

  // Splits every group of the current level at its split layer into the
  // next level's `next`, all at one absolute `layer`; returns why it
  // cannot (empty on success). All groups of a uniform network split at
  // the same layer, and certification requires it: the service retires
  // and spawns whole levels at once.
  const auto split_groups = [&](std::vector<LevelGroup>& next,
                                std::uint32_t& layer) -> std::string {
    const std::string at = " at level " + std::to_string(max_level_ + 1);
    for (const LevelGroup& g : groups) {
      const std::optional<SplitLevel> level = find_split_level(
          net, valencies, balancer_valency_, g.sinks, g.start_layer);
      if (!level) return "no totally ordering layer" + at;
      if (layer == 0) layer = level->split_layer_abs;
      if (layer != level->split_layer_abs) {
        return "groups split at different layers" + at;
      }
      // Props 5.6-5.10 certification: every split-layer balancer is
      // complete (valency == the whole group) and uniformly splittable
      // (equal-size port valencies), and binary so the level doubles.
      if (!level->complete) return "split layer not complete" + at;
      if (!level->uniformly_splittable) {
        return "split layer not uniformly splittable" + at;
      }
      SinkSet low(words, 0);
      SinkSet high(words, 0);
      for (const NodeIndex b : level->split_layer_balancers) {
        const std::vector<SinkSet>& pv = valencies[b];
        if (pv.size() != 2) return "non-binary split layer balancer" + at;
        // The ≺-smaller port valency joins the low group.
        const bool zero_low = sinkset_precedes(pv[0], pv[1]);
        const SinkSet& lo = zero_low ? pv[0] : pv[1];
        const SinkSet& hi = zero_low ? pv[1] : pv[0];
        for (std::size_t i = 0; i < words; ++i) {
          low[i] |= lo[i];
          high[i] |= hi[i];
        }
      }
      if (sinkset_intersects(low, high) ||
          sinkset_count(low) != sinkset_count(high) ||
          sinkset_count(low) + sinkset_count(high) !=
              sinkset_count(g.sinks)) {
        return "split layer ports do not halve the group" + at;
      }
      next.push_back(LevelGroup{std::move(low), layer + 1});
      next.push_back(LevelGroup{std::move(high), layer + 1});
    }
    return {};
  };

  // Descend until the groups are single sinks, which have no balancers
  // left to split on.
  while (std::none_of(groups.begin(), groups.end(), [](const LevelGroup& g) {
    return sinkset_count(g.sinks) <= 1;
  })) {
    std::vector<LevelGroup> next;
    std::uint32_t layer = 0;
    reason_ = split_groups(next, layer);
    if (!reason_.empty()) break;  // Earlier levels stay usable.
    std::sort(next.begin(), next.end(),
              [](const LevelGroup& a, const LevelGroup& b) {
                return sinkset_min(a.sinks) < sinkset_min(b.sinks);
              });
    groups = std::move(next);
    ++max_level_;
    level_split_layer_.push_back(layer);
    std::vector<SinkSet> sets;
    sets.reserve(groups.size());
    for (const LevelGroup& g : groups) sets.push_back(g.sinks);
    level_groups_.push_back(std::move(sets));
  }
  if (max_level_ == 0 && reason_.empty()) {
    reason_ = "network has no splittable layer";
  }
}

std::vector<Subnetwork> SplitPlan::extract(std::uint32_t ell) const {
  if (ell > max_level_) {
    throw std::out_of_range("SplitPlan::extract: level " +
                            std::to_string(ell) + " exceeds max level " +
                            std::to_string(max_level_));
  }
  const std::vector<SinkSet>& sets = level_groups_.at(ell);
  std::vector<Subnetwork> out;
  out.reserve(sets.size());
  for (std::uint32_t g = 0; g < sets.size(); ++g) {
    out.push_back(extract_group(sets[g], ell, g));
  }
  // One full-network cycle delivers exactly one token per entry wire of
  // every group; the order in which they arrive is the group's feed
  // order (verify_extraction checks it repeats across cycles).
  std::vector<std::vector<std::uint32_t>> orders =
      record_entry_order(*net_, out, 1);
  for (std::uint32_t g = 0; g < out.size(); ++g) {
    if (orders[g].size() != out[g].entry_wires.size()) {
      throw std::logic_error(
          "SplitPlan::extract: " + out[g].net->name() + " received " +
          std::to_string(orders[g].size()) + " tokens for " +
          std::to_string(out[g].entry_wires.size()) +
          " entry wires in one cycle");
    }
    out[g].feed_order = std::move(orders[g]);
  }
  return out;
}

Subnetwork SplitPlan::extract_group(const SinkSet& sinks, std::uint32_t ell,
                                    std::uint32_t group) const {
  const Network& net = *net_;
  Subnetwork sub;
  sub.sinks = sinkset_members(sinks);

  // Members: every balancer that can only reach this group's sinks.
  std::vector<NodeIndex> local_of(net.num_balancers(), kInvalidWire);
  for (NodeIndex b = 0; b < net.num_balancers(); ++b) {
    if (sinkset_subset(balancer_valency_[b], sinks)) {
      local_of[b] = static_cast<NodeIndex>(sub.balancers.size());
      sub.balancers.push_back(b);
    }
  }
  std::vector<std::uint32_t> sink_local(net.fan_out(), kInvalidWire);
  for (std::uint32_t u = 0; u < sub.sinks.size(); ++u) {
    sink_local[sub.sinks[u]] = u;
  }

  const auto in_group = [&](const Endpoint& e) {
    if (e.kind == Endpoint::Kind::kBalancer) {
      return local_of[e.index] != kInvalidWire;
    }
    if (e.kind == Endpoint::Kind::kSink) {
      return sink_local[e.index] != kInvalidWire;
    }
    return false;
  };

  // Entry wires (canonical order: ascending full wire index) and
  // internal wires. A wire is internal iff its producer is a member
  // balancer; valency containment guarantees its consumer is in-group.
  std::vector<WireIndex> internal;
  for (WireIndex w = 0; w < net.num_wires(); ++w) {
    const Wire& wire = net.wire(w);
    const bool from_in = wire.from.kind == Endpoint::Kind::kBalancer &&
                         local_of[wire.from.index] != kInvalidWire;
    if (from_in) {
      internal.push_back(w);
    } else if (in_group(wire.to)) {
      sub.entry_wires.push_back(w);
    }
  }
  if (sub.entry_wires.size() != sub.sinks.size()) {
    throw std::logic_error(
        "SplitPlan::extract: group width mismatch (entries " +
        std::to_string(sub.entry_wires.size()) + ", sinks " +
        std::to_string(sub.sinks.size()) + ")");
  }

  const auto remap_to = [&](const Endpoint& e) {
    Endpoint to;
    if (e.kind == Endpoint::Kind::kBalancer) {
      to.kind = Endpoint::Kind::kBalancer;
      to.index = local_of[e.index];
      to.port = e.port;
    } else {
      to.kind = Endpoint::Kind::kSink;
      to.index = sink_local[e.index];
      to.port = 0;
    }
    return to;
  };

  std::vector<Balancer> balancers(sub.balancers.size());
  for (std::size_t b = 0; b < sub.balancers.size(); ++b) {
    const Balancer& full = net.balancer(sub.balancers[b]);
    balancers[b].in.assign(full.fan_in(), kInvalidWire);
    balancers[b].out.assign(full.fan_out(), kInvalidWire);
  }

  std::vector<Wire> wires;
  wires.reserve(sub.entry_wires.size() + internal.size());
  const auto add_consumer = [&](const Endpoint& to, WireIndex local_wire) {
    if (to.kind == Endpoint::Kind::kBalancer) {
      balancers[to.index].in[to.port] = local_wire;
    }
  };
  for (std::uint32_t i = 0; i < sub.entry_wires.size(); ++i) {
    Wire w;
    w.from = Endpoint{Endpoint::Kind::kSource, i, 0};
    w.to = remap_to(net.wire(sub.entry_wires[i]).to);
    add_consumer(w.to, static_cast<WireIndex>(wires.size()));
    wires.push_back(w);
  }
  for (const WireIndex full_w : internal) {
    const Wire& full = net.wire(full_w);
    Wire w;
    w.from = Endpoint{Endpoint::Kind::kBalancer, local_of[full.from.index],
                      full.from.port};
    w.to = remap_to(full.to);
    balancers[w.from.index].out[w.from.port] =
        static_cast<WireIndex>(wires.size());
    add_consumer(w.to, static_cast<WireIndex>(wires.size()));
    wires.push_back(w);
  }

  std::ostringstream name;
  name << net.name() << "/L" << ell << "." << group;
  sub.net = std::make_shared<Network>(
      static_cast<std::uint32_t>(sub.entry_wires.size()),
      static_cast<std::uint32_t>(sub.sinks.size()), std::move(balancers),
      std::move(wires), name.str());
  return sub;
}

std::string verify_extraction(const SplitPlan& plan, std::uint32_t max_ell) {
  if (!plan.applicable()) {
    return "split plan not applicable: " + plan.reason();
  }
  if (max_ell > plan.max_level()) {
    return "verify_extraction: level exceeds max level";
  }
  for (std::uint32_t ell = 1; ell <= max_ell; ++ell) {
    const std::vector<Subnetwork> subs = plan.extract(ell);
    // The feed order must be periodic: cycle 2 of the full network
    // delivers tokens to each group's entries in the same order as
    // cycle 1 (= the recorded feed_order).
    const std::vector<std::vector<std::uint32_t>> two =
        record_entry_order(plan.network(), subs, 2);
    for (std::uint32_t g = 0; g < subs.size(); ++g) {
      const Subnetwork& sub = subs[g];
      const auto m = static_cast<std::uint32_t>(sub.entry_wires.size());
      std::vector<bool> seen(m, false);
      for (const std::uint32_t i : sub.feed_order) {
        if (i >= m || seen[i]) {
          return sub.net->name() + ": feed order is not a permutation";
        }
        seen[i] = true;
      }
      if (two[g].size() != 2ull * m ||
          !std::equal(sub.feed_order.begin(), sub.feed_order.end(),
                      two[g].begin()) ||
          !std::equal(sub.feed_order.begin(), sub.feed_order.end(),
                      two[g].begin() + m)) {
        return sub.net->name() + ": feed order is not cycle-periodic";
      }

      // Every feed-order prefix count vector must count. Parts are
      // merger tails, not arbitrary-input counting networks: skewed
      // entry counts break the step property, so the service feeds them
      // in exactly this balanced cyclic pattern.
      std::vector<std::uint64_t> counts(m, 0);
      for (std::uint32_t k = 1; k <= 2 * m; ++k) {
        ++counts[sub.feed_order[(k - 1) % m]];
        const VerifyReport rep = check_counting(*sub.net, counts);
        if (!rep.ok) {
          return sub.net->name() + " fails counting after " +
                 std::to_string(k) + " balanced-cyclic tokens: " +
                 rep.failure;
        }
      }

      // One balanced cycle must return every balancer to its initial
      // position. With that, behavior is cycle-periodic (counters
      // advance uniformly by one per cycle), so the prefix checks above
      // extend to every token count.
      NetworkState st(*sub.net);
      for (std::uint32_t i = 0; i < m; ++i) {
        st.shepherd(i, 0, sub.feed_order[i]);
      }
      for (NodeIndex b = 0; b < sub.net->num_balancers(); ++b) {
        std::uint64_t through = 0;
        const Balancer& bal = sub.net->balancer(b);
        for (PortIndex p = 0; p < bal.fan_in(); ++p) {
          through += st.balancer_in_count(b, p);
        }
        if (through % bal.fan_out() != 0) {
          return sub.net->name() + ": balancer " + std::to_string(b) +
                 " does not return to its initial position after one "
                 "balanced cycle";
        }
      }
    }
  }
  return {};
}

std::uint32_t operational_max_level(const SplitPlan& plan) {
  if (!plan.applicable()) return 0;
  std::uint32_t level = 0;
  while (level < plan.max_level() &&
         verify_extraction(plan, level + 1).empty()) {
    ++level;
  }
  return level;
}

}  // namespace cn
