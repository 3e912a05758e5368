#include "core/topology.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace cn {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("Network: " + what);
}

}  // namespace

Network::Network(std::uint32_t num_sources, std::uint32_t num_sinks,
                 std::vector<Balancer> balancers, std::vector<Wire> wires,
                 std::string name)
    : num_sources_(num_sources),
      num_sinks_(num_sinks),
      balancers_(std::move(balancers)),
      wires_(std::move(wires)),
      name_(std::move(name)),
      source_wires_(num_sources, kInvalidWire),
      sink_wires_(num_sinks, kInvalidWire) {
  // Index source and sink wires.
  for (WireIndex w = 0; w < wires_.size(); ++w) {
    const Wire& wr = wires_[w];
    if (wr.from.kind == Endpoint::Kind::kSource) {
      if (wr.from.index >= num_sources_) fail("source index out of range");
      if (source_wires_[wr.from.index] != kInvalidWire) {
        fail("source has more than one outgoing wire");
      }
      source_wires_[wr.from.index] = w;
    }
    if (wr.to.kind == Endpoint::Kind::kSink) {
      if (wr.to.index >= num_sinks_) fail("sink index out of range");
      if (sink_wires_[wr.to.index] != kInvalidWire) {
        fail("sink has more than one incoming wire");
      }
      sink_wires_[wr.to.index] = w;
    }
  }
  validate();
  compute_depths();
}

void Network::validate() const {
  for (std::uint32_t i = 0; i < num_sources_; ++i) {
    if (source_wires_[i] == kInvalidWire) fail("unconnected source node");
  }
  for (std::uint32_t j = 0; j < num_sinks_; ++j) {
    if (sink_wires_[j] == kInvalidWire) fail("unconnected sink node");
  }
  // Every balancer port must reference a wire that references it back.
  for (NodeIndex b = 0; b < balancers_.size(); ++b) {
    const Balancer& bal = balancers_[b];
    if (bal.in.empty() || bal.out.empty()) fail("balancer with zero fan");
    for (PortIndex p = 0; p < bal.in.size(); ++p) {
      const WireIndex w = bal.in[p];
      if (w >= wires_.size()) fail("balancer input wire out of range");
      const Endpoint& to = wires_[w].to;
      if (to.kind != Endpoint::Kind::kBalancer || to.index != b || to.port != p) {
        fail("balancer input port / wire mismatch");
      }
    }
    for (PortIndex p = 0; p < bal.out.size(); ++p) {
      const WireIndex w = bal.out[p];
      if (w >= wires_.size()) fail("balancer output wire out of range");
      const Endpoint& from = wires_[w].from;
      if (from.kind != Endpoint::Kind::kBalancer || from.index != b ||
          from.port != p) {
        fail("balancer output port / wire mismatch");
      }
    }
  }
  // Every wire endpoint referencing a balancer must be consistent.
  for (const Wire& wr : wires_) {
    if (wr.from.kind == Endpoint::Kind::kBalancer) {
      if (wr.from.index >= balancers_.size()) fail("wire from unknown balancer");
    }
    if (wr.from.kind == Endpoint::Kind::kSink) fail("wire originating at a sink");
    if (wr.to.kind == Endpoint::Kind::kBalancer) {
      if (wr.to.index >= balancers_.size()) fail("wire into unknown balancer");
    }
    if (wr.to.kind == Endpoint::Kind::kSource) fail("wire terminating at a source");
  }
}

void Network::compute_depths() {
  // Longest-path layering via Kahn's algorithm on the balancer DAG.
  // depth(B) = 1 + max over input wires of depth(feeding balancer), with
  // source-fed wires contributing depth 0 (paper Section 2.5).
  const auto n = static_cast<NodeIndex>(balancers_.size());
  balancer_depth_.assign(n, 0);
  std::vector<std::uint32_t> pending(n, 0);
  for (NodeIndex b = 0; b < n; ++b) {
    for (const WireIndex w : balancers_[b].in) {
      if (wires_[w].from.kind == Endpoint::Kind::kBalancer) ++pending[b];
    }
  }
  std::queue<NodeIndex> ready;
  for (NodeIndex b = 0; b < n; ++b) {
    if (pending[b] == 0) {
      ready.push(b);
      balancer_depth_[b] = 1;
    }
  }
  NodeIndex processed = 0;
  while (!ready.empty()) {
    const NodeIndex b = ready.front();
    ready.pop();
    ++processed;
    for (const WireIndex w : balancers_[b].out) {
      const Endpoint& to = wires_[w].to;
      if (to.kind != Endpoint::Kind::kBalancer) continue;
      const NodeIndex succ = to.index;
      balancer_depth_[succ] =
          std::max(balancer_depth_[succ], balancer_depth_[b] + 1);
      if (--pending[succ] == 0) ready.push(succ);
    }
  }
  if (processed != n) fail("graph contains a cycle");

  depth_ = 0;
  for (NodeIndex b = 0; b < n; ++b) depth_ = std::max(depth_, balancer_depth_[b]);
  layers_.assign(depth_, {});
  for (NodeIndex b = 0; b < n; ++b) layers_[balancer_depth_[b] - 1].push_back(b);

  // Uniform iff every wire spans exactly one layer: each balancer's
  // inputs are produced at depth(b) - 1 and each sink's wire at depth d(G)
  // (by a source when d = 0).
  const auto producer_depth = [&](WireIndex w) {
    const Endpoint& from = wires_[w].from;
    return from.kind == Endpoint::Kind::kSource ? 0u
                                                : balancer_depth_[from.index];
  };
  uniform_ = true;
  for (NodeIndex b = 0; b < n; ++b) {
    for (const WireIndex w : balancers_[b].in) {
      uniform_ = uniform_ && producer_depth(w) == balancer_depth_[b] - 1;
    }
  }
  for (const WireIndex w : sink_wires_) {
    uniform_ = uniform_ && producer_depth(w) == depth_;
  }
}

}  // namespace cn
