#include "core/valency.hpp"

#include <algorithm>
#include <numeric>

namespace cn {

std::uint32_t sinkset_count(const SinkSet& s) {
  std::uint32_t c = 0;
  for (const std::uint64_t w : s) {
    c += static_cast<std::uint32_t>(__builtin_popcountll(w));
  }
  return c;
}

bool sinkset_subset(const SinkSet& sub, const SinkSet& super) {
  for (std::size_t i = 0; i < sub.size(); ++i) {
    if ((sub[i] & ~super[i]) != 0) return false;
  }
  return true;
}

bool sinkset_intersects(const SinkSet& a, const SinkSet& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if ((a[i] & b[i]) != 0) return true;
  }
  return false;
}

std::uint32_t sinkset_min(const SinkSet& s) {
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != 0) {
      return static_cast<std::uint32_t>(i * 64 + __builtin_ctzll(s[i]));
    }
  }
  return UINT32_MAX;
}

std::uint32_t sinkset_max(const SinkSet& s) {
  for (std::size_t i = s.size(); i-- > 0;) {
    if (s[i] != 0) {
      return static_cast<std::uint32_t>(i * 64 + 63 - __builtin_clzll(s[i]));
    }
  }
  return 0;
}

bool sinkset_precedes(const SinkSet& a, const SinkSet& b) {
  if (sinkset_count(a) == 0 || sinkset_count(b) == 0) return true;
  return sinkset_max(a) < sinkset_min(b);
}

std::vector<std::vector<SinkSet>> output_valencies(const Network& net) {
  const std::size_t words = (net.fan_out() + 63) / 64;
  std::vector<std::vector<SinkSet>> val(net.num_balancers());
  std::vector<NodeIndex> order(net.num_balancers());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](NodeIndex a, NodeIndex b) {
    return net.balancer_depth(a) > net.balancer_depth(b);
  });
  for (const NodeIndex b : order) {
    const Balancer& bal = net.balancer(b);
    val[b].assign(bal.fan_out(), SinkSet(words, 0));
    for (PortIndex p = 0; p < bal.fan_out(); ++p) {
      const Endpoint& to = net.wire(bal.out[p]).to;
      if (to.kind == Endpoint::Kind::kSink) {
        val[b][p][to.index / 64] |= 1ull << (to.index % 64);
      } else {
        // Union over all output valencies of the successor balancer.
        for (const SinkSet& succ : val[to.index]) {
          for (std::size_t i = 0; i < words; ++i) val[b][p][i] |= succ[i];
        }
      }
    }
  }
  return val;
}

std::vector<SinkSet> balancer_valencies(
    const std::vector<std::vector<SinkSet>>& valencies) {
  std::vector<SinkSet> val(valencies.size());
  for (std::size_t b = 0; b < valencies.size(); ++b) {
    val[b] = valencies[b].front();
    for (const SinkSet& pv : valencies[b]) {
      for (std::size_t i = 0; i < pv.size(); ++i) val[b][i] |= pv[i];
    }
  }
  return val;
}

bool is_univalent(const std::vector<SinkSet>& port_valencies) {
  for (std::size_t j = 0; j < port_valencies.size(); ++j) {
    for (std::size_t k = j + 1; k < port_valencies.size(); ++k) {
      if (sinkset_intersects(port_valencies[j], port_valencies[k])) return false;
    }
  }
  return true;
}

bool is_totally_ordering(const std::vector<SinkSet>& port_valencies) {
  for (std::size_t j = 0; j < port_valencies.size(); ++j) {
    for (std::size_t k = j + 1; k < port_valencies.size(); ++k) {
      if (!sinkset_precedes(port_valencies[j], port_valencies[k]) &&
          !sinkset_precedes(port_valencies[k], port_valencies[j])) {
        return false;
      }
    }
  }
  return true;
}

std::optional<SplitLevel> find_split_level(
    const Network& net, const std::vector<std::vector<SinkSet>>& valencies,
    const std::vector<SinkSet>& balancer_val, const SinkSet& sinks,
    std::uint32_t start_layer) {
  for (std::uint32_t abs = start_layer; abs <= net.depth(); ++abs) {
    std::vector<NodeIndex> members;
    bool ordering = true;
    for (const NodeIndex b : net.layer(abs)) {
      if (!sinkset_subset(balancer_val[b], sinks)) continue;
      members.push_back(b);
      ordering = ordering && is_totally_ordering(valencies[b]);
    }
    if (members.empty() || !ordering) continue;
    SplitLevel level;
    level.start_layer = start_layer;
    level.depth = net.depth() + 1 - start_layer;
    level.split_depth = abs - start_layer + 1;
    level.split_layer_abs = abs;
    level.complete = true;
    level.uniformly_splittable = true;
    for (const NodeIndex b : members) {
      if (balancer_val[b] != sinks) level.complete = false;
      const std::uint32_t first = sinkset_count(valencies[b][0]);
      for (const SinkSet& pv : valencies[b]) {
        if (sinkset_count(pv) != first) level.uniformly_splittable = false;
      }
    }
    level.split_layer_balancers = std::move(members);
    level.sinks = sinks;
    return level;
  }
  return std::nullopt;
}

SplitAnalysis::SplitAnalysis(const Network& net) : depth_(net.depth()) {
  const auto valencies = output_valencies(net);
  const std::vector<SinkSet> balancer_val = balancer_valencies(valencies);
  SinkSet sinks((net.fan_out() + 63) / 64, 0);
  for (std::uint32_t j = 0; j < net.fan_out(); ++j) {
    sinks[j / 64] |= 1ull << (j % 64);
  }
  std::uint32_t start_layer = 1;
  for (;;) {
    std::optional<SplitLevel> level =
        find_split_level(net, valencies, balancer_val, sinks, start_layer);
    if (!level) {
      applicable_ = false;
      return;
    }
    levels_.push_back(std::move(*level));
    const SplitLevel& last = levels_.back();
    if (last.split_layer_abs == depth_) return;  // sd(S) == d(S): last element.

    // Next element: the bottom subnetwork SP2 — the part of the split
    // network serving the highest-ordered port valencies. Its sinks are
    // the union, over split-layer balancers, of the last port's valency
    // under the ≺ order (for (2,2)-balancers: the bottom output).
    SinkSet next(sinks.size(), 0);
    for (const NodeIndex b : last.split_layer_balancers) {
      // Pick the port whose valency is ≺-maximal.
      const std::vector<SinkSet>& pv = valencies[b];
      std::size_t best = 0;
      for (std::size_t p = 1; p < pv.size(); ++p) {
        if (sinkset_precedes(pv[best], pv[p])) best = p;
      }
      for (std::size_t i = 0; i < next.size(); ++i) next[i] |= pv[best][i];
    }
    sinks = std::move(next);
    start_layer = last.split_layer_abs + 1;
  }
}

bool SplitAnalysis::continuously_complete() const {
  for (std::size_t i = 0; i + 1 < levels_.size(); ++i) {
    if (!levels_[i].complete) return false;
  }
  return !levels_.empty() && levels_.front().complete;
}

bool SplitAnalysis::continuously_uniformly_splittable() const {
  for (std::size_t i = 0; i + 1 < levels_.size(); ++i) {
    if (!levels_[i].uniformly_splittable) return false;
  }
  return !levels_.empty() && levels_.front().uniformly_splittable;
}

}  // namespace cn
