// Unit tests for the Network graph model (core/topology).
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/builder.hpp"
#include "core/constructions.hpp"
#include "core/topology.hpp"

namespace cn {
namespace {

TEST(Topology, SingleBalancerShape) {
  const Network net = make_single_balancer(2, 2);
  EXPECT_EQ(net.fan_in(), 2u);
  EXPECT_EQ(net.fan_out(), 2u);
  EXPECT_EQ(net.num_balancers(), 1u);
  EXPECT_EQ(net.depth(), 1u);
  EXPECT_EQ(net.num_layers(), 1u);
  EXPECT_EQ(net.layer(1).size(), 1u);
  EXPECT_TRUE(net.balancer(0).regular());
}

TEST(Topology, IrregularBalancerShape) {
  const Network net = make_single_balancer(3, 5);
  EXPECT_EQ(net.fan_in(), 3u);
  EXPECT_EQ(net.fan_out(), 5u);
  EXPECT_EQ(net.balancer(0).fan_in(), 3u);
  EXPECT_EQ(net.balancer(0).fan_out(), 5u);
  EXPECT_FALSE(net.balancer(0).regular());
}

TEST(Topology, SourceAndSinkWiresRoundTrip) {
  const Network net = make_single_balancer(2, 2);
  for (std::uint32_t i = 0; i < net.fan_in(); ++i) {
    const Wire& w = net.wire(net.source_wire(i));
    EXPECT_EQ(w.from.kind, Endpoint::Kind::kSource);
    EXPECT_EQ(w.from.index, i);
  }
  for (std::uint32_t j = 0; j < net.fan_out(); ++j) {
    const Wire& w = net.wire(net.sink_wire(j));
    EXPECT_EQ(w.to.kind, Endpoint::Kind::kSink);
    EXPECT_EQ(w.to.index, j);
  }
}

TEST(Topology, BalancerPortWiringConsistent) {
  const Network net = make_bitonic(8);
  for (NodeIndex b = 0; b < net.num_balancers(); ++b) {
    const Balancer& bal = net.balancer(b);
    for (PortIndex p = 0; p < bal.fan_in(); ++p) {
      const Wire& w = net.wire(bal.in[p]);
      EXPECT_EQ(w.to.kind, Endpoint::Kind::kBalancer);
      EXPECT_EQ(w.to.index, b);
      EXPECT_EQ(w.to.port, p);
    }
    for (PortIndex p = 0; p < bal.fan_out(); ++p) {
      const Wire& w = net.wire(bal.out[p]);
      EXPECT_EQ(w.from.kind, Endpoint::Kind::kBalancer);
      EXPECT_EQ(w.from.index, b);
      EXPECT_EQ(w.from.port, p);
    }
  }
}

TEST(Topology, LayersPartitionBalancers) {
  const Network net = make_periodic(8);
  std::size_t total = 0;
  for (std::uint32_t ell = 1; ell <= net.num_layers(); ++ell) {
    for (const NodeIndex b : net.layer(ell)) {
      EXPECT_EQ(net.balancer_depth(b), ell);
      ++total;
    }
  }
  EXPECT_EQ(total, net.num_balancers());
}

TEST(Topology, EdgesNeverGoBackward) {
  const Network net = make_bitonic(16);
  for (const Wire& w : net.wires()) {
    if (w.from.kind == Endpoint::Kind::kBalancer &&
        w.to.kind == Endpoint::Kind::kBalancer) {
      EXPECT_LT(net.balancer_depth(w.from.index), net.balancer_depth(w.to.index));
    }
  }
}

TEST(Topology, RejectsCycle) {
  // Two (2,2)-balancers feeding each other: bal0.out0 -> bal1.in1 and
  // bal1.out0 -> bal0.in1, with sources/sinks on the remaining ports.
  const std::vector<Wire> wires = {
      {{Endpoint::Kind::kSource, 0, 0}, {Endpoint::Kind::kBalancer, 0, 0}},  // 0
      {{Endpoint::Kind::kBalancer, 1, 0}, {Endpoint::Kind::kBalancer, 0, 1}},  // 1
      {{Endpoint::Kind::kSource, 1, 0}, {Endpoint::Kind::kBalancer, 1, 0}},  // 2
      {{Endpoint::Kind::kBalancer, 0, 0}, {Endpoint::Kind::kBalancer, 1, 1}},  // 3
      {{Endpoint::Kind::kBalancer, 0, 1}, {Endpoint::Kind::kSink, 0, 0}},  // 4
      {{Endpoint::Kind::kBalancer, 1, 1}, {Endpoint::Kind::kSink, 1, 0}},  // 5
  };
  std::vector<Balancer> balancers(2);
  balancers[0].in = {0, 1};
  balancers[0].out = {3, 4};
  balancers[1].in = {2, 3};
  balancers[1].out = {1, 5};
  EXPECT_THROW(Network(2, 2, balancers, wires, "cycle"), std::invalid_argument);
}

TEST(Topology, RejectsDanglingSource) {
  NetworkBuilder b(2, 1);
  const NodeIndex bal = b.add_balancer(1, 1);
  b.connect_source_to_balancer(0, bal, 0);
  b.connect_balancer_to_sink(bal, 0, 0);
  // Source 1 never connected.
  EXPECT_THROW(b.build("dangling"), std::invalid_argument);
}

TEST(Topology, NamesArePropagated) {
  EXPECT_EQ(make_bitonic(4).name(), "bitonic(4)");
  EXPECT_EQ(make_periodic(4).name(), "periodic(4)");
  EXPECT_EQ(make_counting_tree(4).name(), "counting_tree(4)");
}

// Uniformity (LSST99 Definition 2.1) at the edges of the depth rule.

TEST(Topology, BalancerFreeNetworkIsUniform) {
  NetworkBuilder b(2, 2);
  b.connect_source_to_sink(0, 1);
  b.connect_source_to_sink(1, 0);
  const Network net = b.build("wires");
  EXPECT_EQ(net.depth(), 0u);
  EXPECT_TRUE(net.uniform());
}

TEST(Topology, SourceWiredToSinkBesideABalancerIsNotUniform) {
  // Sink 2 sits at depth 0, sinks 0 and 1 at depth 1.
  NetworkBuilder b(3, 3);
  const NodeIndex bal = b.add_balancer(2, 2);
  b.connect_source_to_balancer(0, bal, 0);
  b.connect_source_to_balancer(1, bal, 1);
  b.connect_balancer_to_sink(bal, 0, 0);
  b.connect_balancer_to_sink(bal, 1, 1);
  b.connect_source_to_sink(2, 2);
  EXPECT_FALSE(b.build("bypass").uniform());
}

TEST(Topology, BalancerFedFromTwoDepthsIsNotUniform) {
  // The second balancer takes one input from the first (depth 1) and one
  // from a source (depth 0). Every sink still sits at depth d(G) = 2: the
  // first balancer's other output passes a (1,1) balancer.
  NetworkBuilder b(3, 3);
  const NodeIndex first = b.add_balancer(2, 2);
  const NodeIndex second = b.add_balancer(2, 2);
  const NodeIndex pass = b.add_balancer(1, 1);
  b.connect_source_to_balancer(0, first, 0);
  b.connect_source_to_balancer(1, first, 1);
  b.connect_balancer_to_balancer(first, 0, pass, 0);
  b.connect_balancer_to_balancer(first, 1, second, 0);
  b.connect_source_to_balancer(2, second, 1);
  b.connect_balancer_to_sink(pass, 0, 0);
  b.connect_balancer_to_sink(second, 0, 1);
  b.connect_balancer_to_sink(second, 1, 2);
  const Network net = b.build("skewed");
  EXPECT_EQ(net.depth(), 2u);
  EXPECT_FALSE(net.uniform());
}

}  // namespace
}  // namespace cn
