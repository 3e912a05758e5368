// Unit tests for NetworkBuilder and LayeredBuilder (core/builder).
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/builder.hpp"
#include "core/sequential.hpp"
#include "core/topology.hpp"
#include "core/verify.hpp"
#include "counting_certificate.hpp"
#include "util/rng.hpp"

namespace cn {
namespace {

TEST(NetworkBuilder, BuildsMinimalNetwork) {
  NetworkBuilder b(2, 2);
  const NodeIndex bal = b.add_balancer(2, 2);
  b.connect_source_to_balancer(0, bal, 0);
  b.connect_source_to_balancer(1, bal, 1);
  b.connect_balancer_to_sink(bal, 0, 0);
  b.connect_balancer_to_sink(bal, 1, 1);
  const Network net = b.build("minimal");
  EXPECT_EQ(net.num_balancers(), 1u);
  EXPECT_EQ(net.depth(), 1u);
}

TEST(NetworkBuilder, RejectsZeroFan) {
  NetworkBuilder b(1, 1);
  EXPECT_THROW(b.add_balancer(0, 2), std::invalid_argument);
  EXPECT_THROW(b.add_balancer(2, 0), std::invalid_argument);
}

TEST(NetworkBuilder, RejectsDoubleWiringOfInputPort) {
  NetworkBuilder b(2, 2);
  const NodeIndex bal = b.add_balancer(2, 2);
  b.connect_source_to_balancer(0, bal, 0);
  EXPECT_THROW(b.connect_source_to_balancer(1, bal, 0), std::invalid_argument);
}

TEST(NetworkBuilder, RejectsDoubleWiringOfOutputPort) {
  NetworkBuilder b(2, 2);
  const NodeIndex bal = b.add_balancer(2, 2);
  b.connect_balancer_to_sink(bal, 0, 0);
  EXPECT_THROW(b.connect_balancer_to_sink(bal, 0, 1), std::invalid_argument);
}

TEST(NetworkBuilder, RejectsUnconnectedPortsAtBuild) {
  NetworkBuilder b(2, 2);
  const NodeIndex bal = b.add_balancer(2, 2);
  b.connect_source_to_balancer(0, bal, 0);
  b.connect_source_to_balancer(1, bal, 1);
  b.connect_balancer_to_sink(bal, 0, 0);
  EXPECT_THROW(b.build("incomplete"), std::invalid_argument);
}

TEST(NetworkBuilder, SourceDirectToSink) {
  NetworkBuilder b(1, 1);
  b.connect_source_to_sink(0, 0);
  const Network net = b.build("pass_through");
  EXPECT_EQ(net.num_balancers(), 0u);
  EXPECT_EQ(net.depth(), 0u);
}

TEST(LayeredBuilder, TwoStageColumn) {
  LayeredBuilder b(4);
  b.add_balancer2(0, 1);
  b.add_balancer2(2, 3);
  b.add_balancer2(1, 2);
  const Network net = b.finish("two_stage");
  EXPECT_EQ(net.num_balancers(), 3u);
  EXPECT_EQ(net.depth(), 2u);
  EXPECT_EQ(net.layer(1).size(), 2u);
  EXPECT_EQ(net.layer(2).size(), 1u);
}

TEST(LayeredBuilder, MixedFanBalancersLikeFigure2) {
  // The paper's Figure 2 shows a (6,6)-balancing network mixing (2,2)-
  // and (3,3)-balancers; build one in that style and exercise the
  // balancing semantics with the sequential engine.
  LayeredBuilder b(6);
  b.add_balancer({0, 1, 2});  // (3,3)
  b.add_balancer({3, 4, 5});  // (3,3)
  b.add_balancer2(0, 3);      // (2,2) column
  b.add_balancer2(1, 4);
  b.add_balancer2(2, 5);
  b.add_balancer({0, 1, 2});
  b.add_balancer({3, 4, 5});
  const Network net = b.finish("figure2_style");
  EXPECT_EQ(net.depth(), 3u);
  EXPECT_EQ(net.num_balancers(), 7u);
  EXPECT_EQ(net.layer(1).size(), 2u);
  EXPECT_EQ(net.layer(2).size(), 3u);

  // Drive 60 tokens through and check every balancer's step property and
  // token conservation at quiescence (a balancing network, whether or
  // not it counts).
  NetworkState state(net);
  Xoshiro256 rng(62);
  for (TokenId t = 0; t < 60; ++t) {
    (void)state.shepherd(t, t, static_cast<std::uint32_t>(rng.below(6)));
  }
  EXPECT_TRUE(check_quiescent_step_property(state).ok);
}

TEST(LayeredBuilder, WideBalancerSpanningAllLines) {
  // A single (6,6)-balancer across every line is itself a counting
  // network of depth 1.
  LayeredBuilder b(6);
  b.add_balancer({0, 1, 2, 3, 4, 5});
  const Network net = b.finish("wide");
  Xoshiro256 rng(63);
  EXPECT_TRUE(check_counting_random(net, rng, 20, 10).ok);
  const VerifyReport box = check_counting_exhaustive(net, 4);  // 5^6 vectors
  EXPECT_TRUE(box.ok) << box.failure;
}

TEST(LayeredBuilder, RejectsDuplicateLine) {
  LayeredBuilder b(4);
  EXPECT_THROW(b.add_balancer({1, 1}), std::invalid_argument);
}

TEST(LayeredBuilder, RejectsOutOfRangeLine) {
  LayeredBuilder b(4);
  EXPECT_THROW(b.add_balancer2(0, 4), std::invalid_argument);
}

TEST(LayeredBuilder, RejectsNonPermutationOutputLines) {
  LayeredBuilder b(4);
  EXPECT_THROW(b.add_balancer({0, 1}, {2, 3}), std::invalid_argument);
}

TEST(LayeredBuilder, PermutedOutputsCrossWires) {
  // A (2,2)-balancer whose outputs land swapped: port 0 on line 1.
  LayeredBuilder b(2);
  b.add_balancer({0, 1}, {1, 0});
  const Network net = b.finish("crossed");
  // Output port 0 of the balancer must feed sink 1.
  const Wire& w0 = net.wire(net.balancer(0).out[0]);
  ASSERT_EQ(w0.to.kind, Endpoint::Kind::kSink);
  EXPECT_EQ(w0.to.index, 1u);
  const Wire& w1 = net.wire(net.balancer(0).out[1]);
  EXPECT_EQ(w1.to.index, 0u);
}

TEST(LayeredBuilder, WidthOneAttachesCounterDirectly) {
  LayeredBuilder b(1);
  const Network net = b.finish("wire_only");
  EXPECT_EQ(net.num_balancers(), 0u);
  EXPECT_EQ(net.fan_in(), 1u);
  EXPECT_EQ(net.fan_out(), 1u);
}

TEST(LayeredBuilder, FinishTwiceThrows) {
  LayeredBuilder b(2);
  b.add_balancer2(0, 1);
  (void)b.finish("once");
  EXPECT_THROW(b.finish("twice"), std::invalid_argument);
}

TEST(LayeredBuilder, AddAfterFinishThrows) {
  LayeredBuilder b(2);
  (void)b.finish("done");
  EXPECT_THROW(b.add_balancer2(0, 1), std::invalid_argument);
}

}  // namespace
}  // namespace cn
