// Tests for structural parameters (core/structure): shallowness,
// influence radius, reachability (the balancer valencies it reads).
#include <gtest/gtest.h>

#include "core/constructions.hpp"
#include "core/structure.hpp"
#include "core/valency.hpp"
#include "util/bits.hpp"

namespace cn {
namespace {

std::uint32_t lg(std::uint32_t w) { return log2_exact(w); }

TEST(Shallowness, EqualsDepthForUniformNetworks) {
  // s(G) = d(G) iff G is uniform (paper Section 2.5 / Table 1 caption).
  for (const std::uint32_t w : {2u, 4u, 8u, 16u}) {
    const Network b = make_bitonic(w);
    EXPECT_EQ(shallowness(b), b.depth());
    const Network p = make_periodic(w);
    EXPECT_EQ(shallowness(p), p.depth());
    const Network t = make_counting_tree(w);
    EXPECT_EQ(shallowness(t), t.depth());
  }
}

TEST(Shallowness, StrictlyLessForNonUniform) {
  const Network net = make_brick_wall(4, 3);
  // Line 0 misses the middle stage, so some path is shorter than d(G).
  EXPECT_LT(shallowness(net), net.depth());
}

TEST(Shallowness, SingleBalancer) {
  EXPECT_EQ(shallowness(make_single_balancer(2, 2)), 1u);
}

TEST(InfluenceRadius, CountingTreeIsDepth) {
  // Sinks from different root subtrees have the root as their only common
  // ancestor: irad = d(G) = lg w, giving the necessary condition ratio
  // d/irad + 1 = 2 (Table 1, counting tree row).
  for (const std::uint32_t w : {2u, 4u, 8u, 16u, 32u}) {
    const Network net = make_counting_tree(w);
    EXPECT_EQ(influence_radius(net), net.depth()) << net.name();
  }
}

TEST(InfluenceRadius, BitonicIsLgW) {
  // The first column of the merging network M(w) is complete (covers all
  // sinks) and is the deepest common ancestor of outputs from different
  // halves: irad(B(w)) = lg w. Note d/irad + 1 = (lg w + 3)/2 — exactly
  // the threshold in Propositions 5.2/5.3.
  for (const std::uint32_t w : {4u, 8u, 16u, 32u}) {
    const Network net = make_bitonic(w);
    EXPECT_EQ(influence_radius(net), lg(w)) << net.name();
  }
}

TEST(InfluenceRadius, PeriodicIsLgW) {
  // Same reasoning with the top-bottom column of the last block.
  for (const std::uint32_t w : {4u, 8u, 16u}) {
    const Network net = make_periodic(w);
    EXPECT_EQ(influence_radius(net), lg(w)) << net.name();
  }
}

TEST(InfluenceRadius, SingleBalancer) {
  EXPECT_EQ(influence_radius(make_single_balancer(2, 2)), 1u);
}

TEST(Reachability, LayerOneBalancersAreComplete) {
  // Every sink must be reachable from each balancer in layer 1
  // (paper Section 5.3 preliminaries).
  for (const std::uint32_t w : {4u, 8u, 16u}) {
    for (const Network& net :
         {make_bitonic(w), make_periodic(w), make_counting_tree(w)}) {
      const auto val = balancer_valencies(output_valencies(net));
      for (const NodeIndex b : net.layer(1)) {
        EXPECT_EQ(sinkset_count(val[b]), net.fan_out()) << net.name();
      }
    }
  }
}

TEST(Reachability, LastLayerBalancersCoverExactlyTheirFanOut) {
  for (const std::uint32_t w : {4u, 8u, 16u}) {
    const Network net = make_bitonic(w);
    const auto val = balancer_valencies(output_valencies(net));
    for (const NodeIndex b : net.layer(net.depth())) {
      EXPECT_EQ(sinkset_count(val[b]), net.balancer(b).fan_out());
    }
  }
}

TEST(Reachability, WideNetworkUsesMultipleBitsetWords) {
  // w = 128 sinks spans two 64-bit words; exercise the multi-word paths.
  const Network net = make_counting_tree(128);
  EXPECT_TRUE(all_inputs_reach_all_outputs(net));
  EXPECT_EQ(influence_radius(net), net.depth());
}

}  // namespace
}  // namespace cn
