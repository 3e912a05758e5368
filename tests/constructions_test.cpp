// Tests for the classic counting-network constructions: shapes match the
// paper's closed forms and — crucially — every construction actually
// counts (step property + gap-free values at quiescence for exhaustive
// small inputs and randomized larger ones).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/constructions.hpp"
#include "core/structure.hpp"
#include "core/sequential.hpp"
#include "core/verify.hpp"
#include "counting_certificate.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace cn {
namespace {

std::uint32_t lg(std::uint32_t w) { return log2_exact(w); }

// ---------------------------------------------------------------- shapes

TEST(Shapes, BitonicDepthMatchesClosedForm) {
  for (const std::uint32_t w : {2u, 4u, 8u, 16u, 32u, 64u}) {
    const Network net = make_bitonic(w);
    EXPECT_EQ(net.depth(), lg(w) * (lg(w) + 1) / 2) << net.name();
  }
}

TEST(Shapes, BitonicBalancerCount) {
  // Every layer of B(w) is a full column of w/2 two-input balancers.
  for (const std::uint32_t w : {2u, 4u, 8u, 16u, 32u}) {
    const Network net = make_bitonic(w);
    EXPECT_EQ(net.num_balancers(), net.depth() * w / 2) << net.name();
    for (std::uint32_t ell = 1; ell <= net.num_layers(); ++ell) {
      EXPECT_EQ(net.layer(ell).size(), w / 2) << net.name() << " layer " << ell;
    }
  }
}

TEST(Shapes, MergerDepthIsLgW) {
  for (const std::uint32_t w : {2u, 4u, 8u, 16u, 32u, 64u}) {
    EXPECT_EQ(make_merger(w).depth(), lg(w));
  }
}

TEST(Shapes, PeriodicDepthIsLgSquared) {
  for (const std::uint32_t w : {2u, 4u, 8u, 16u, 32u}) {
    EXPECT_EQ(make_periodic(w).depth(), lg(w) * lg(w));
  }
}

TEST(Shapes, BlockDepthIsLgW) {
  for (const std::uint32_t w : {2u, 4u, 8u, 16u, 32u, 64u}) {
    EXPECT_EQ(make_block(w).depth(), lg(w));
  }
}

TEST(Shapes, BlockAndMergerAreIsomorphicInSize) {
  // Herlihy & Tirthapura 2006: L(w) and M(w) are isomorphic as graphs.
  // We check the size/depth/layer-profile consequences.
  for (const std::uint32_t w : {4u, 8u, 16u, 32u}) {
    const Network m = make_merger(w);
    const Network l = make_block(w);
    EXPECT_EQ(m.num_balancers(), l.num_balancers());
    EXPECT_EQ(m.depth(), l.depth());
    for (std::uint32_t ell = 1; ell <= m.depth(); ++ell) {
      EXPECT_EQ(m.layer(ell).size(), l.layer(ell).size());
    }
  }
}

TEST(Shapes, CountingTreeShape) {
  for (const std::uint32_t w : {2u, 4u, 8u, 16u, 32u, 64u}) {
    const Network net = make_counting_tree(w);
    EXPECT_EQ(net.fan_in(), 1u);
    EXPECT_EQ(net.fan_out(), w);
    EXPECT_EQ(net.depth(), lg(w));
    EXPECT_EQ(net.num_balancers(), w - 1);
  }
}

TEST(Shapes, RejectsNonPowerOfTwo) {
  EXPECT_THROW(make_bitonic(6), std::invalid_argument);
  EXPECT_THROW(make_periodic(12), std::invalid_argument);
  EXPECT_THROW(make_counting_tree(3), std::invalid_argument);
  EXPECT_THROW(make_bitonic(0), std::invalid_argument);
  EXPECT_THROW(make_bitonic(1), std::invalid_argument);
}

// ------------------------------------------------------------- uniformity

TEST(Uniformity, AllPaperConstructionsAreUniform) {
  for (const std::uint32_t w : {2u, 4u, 8u, 16u}) {
    EXPECT_TRUE(make_bitonic(w).uniform());
    EXPECT_TRUE(make_periodic(w).uniform());
    EXPECT_TRUE(make_merger(w).uniform());
    EXPECT_TRUE(make_block(w).uniform());
    EXPECT_TRUE(make_counting_tree(w).uniform());
  }
}

TEST(Uniformity, BrickWallIsNotUniform) {
  EXPECT_FALSE(make_brick_wall(4, 3).uniform());
}

// ---------------------------------------------------------------- counting

class CountingNetworkTest
    : public ::testing::TestWithParam<std::tuple<const char*, std::uint32_t>> {
 protected:
  Network build() const {
    const auto [kind, w] = GetParam();
    const std::string k = kind;
    if (k == "bitonic") return make_bitonic(w);
    if (k == "periodic") return make_periodic(w);
    if (k == "tree") return make_counting_tree(w);
    throw std::logic_error("unknown kind");
  }
};

TEST_P(CountingNetworkTest, CountsOnRandomInputVectors) {
  const Network net = build();
  Xoshiro256 rng(0xC0FFEE ^ net.fan_out());
  const auto report = check_counting_random(net, rng, /*trials=*/30,
                                            /*max_per_source=*/17);
  EXPECT_TRUE(report.ok) << net.name() << ": " << report.failure;
}

TEST_P(CountingNetworkTest, CountsOnEveryInputVectorInABox) {
  // The widest box that sweeps in about a second: [0, 4]^w up to w = 4,
  // [0, 3]^8 and the 0/1 vectors at w = 16 (2^16 vectors each).
  const Network net = build();
  const std::uint32_t w = net.fan_in();
  const std::uint64_t m = w <= 4 ? 4 : w == 8 ? 3 : 1;
  const auto report = check_counting_exhaustive(net, m);
  EXPECT_TRUE(report.ok) << net.name() << ": " << report.failure;
}

TEST_P(CountingNetworkTest, CountsOnStructuredInputVectors) {
  const Network net = build();
  const std::uint32_t w_in = net.fan_in();
  std::vector<std::vector<std::uint64_t>> vectors;
  vectors.push_back(std::vector<std::uint64_t>(w_in, 0));     // empty
  vectors.push_back(std::vector<std::uint64_t>(w_in, 1));     // one each
  vectors.push_back(std::vector<std::uint64_t>(w_in, 7));     // many each
  {
    std::vector<std::uint64_t> v(w_in, 0);                    // all on wire 0
    v[0] = 3 * net.fan_out() + 1;
    vectors.push_back(v);
  }
  {
    std::vector<std::uint64_t> v(w_in, 0);                    // all on last
    v[w_in - 1] = 2 * net.fan_out();
    vectors.push_back(v);
  }
  {
    std::vector<std::uint64_t> v(w_in);                       // ramp
    for (std::uint32_t i = 0; i < w_in; ++i) v[i] = i;
    vectors.push_back(v);
  }
  for (const auto& v : vectors) {
    const auto report = check_counting(net, v);
    EXPECT_TRUE(report.ok) << net.name() << ": " << report.failure;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllNetworks, CountingNetworkTest,
    ::testing::Combine(::testing::Values("bitonic", "periodic", "tree"),
                       ::testing::Values(2u, 4u, 8u, 16u)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param)) + "_w" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Counting, ExhaustiveSmallBitonic) {
  // All input vectors with entries in [0, 4] for w = 4: 5^4 = 625 cases.
  const auto report = check_counting_exhaustive(make_bitonic(4), 4);
  EXPECT_TRUE(report.ok) << report.failure;
}

TEST(Counting, ExhaustiveSmallPeriodic) {
  const auto report = check_counting_exhaustive(make_periodic(4), 4);
  EXPECT_TRUE(report.ok) << report.failure;
}

TEST(Counting, ExhaustiveCertificateRefutesShortBlockCascades) {
  // A cascade of fewer than lg w blocks does not count, yet random draws
  // pass block_cascade(16, 3) for most seeds; every 0/1 vector does not.
  for (const auto& [w, stages, m] :
       std::vector<std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>>{
           {16, 3, 1}, {8, 2, 3}}) {
    const Network net = make_block_cascade(w, stages);
    const auto report = check_counting_exhaustive(net, m);
    EXPECT_FALSE(report.ok) << net.name();
    EXPECT_NE(report.failure.find("input ("), std::string::npos)
        << report.failure;
  }
  // The full cascade counts, and a box past 2^16 vectors is refused.
  EXPECT_TRUE(check_counting_exhaustive(make_block_cascade(8, 3), 3).ok);
  EXPECT_THROW(check_counting_exhaustive(make_bitonic(16), 2),
               std::invalid_argument);
  EXPECT_THROW(check_counting_exhaustive(make_bitonic(8), 4),
               std::invalid_argument);
}

TEST(Counting, SingleBlockIsNotACountingNetwork) {
  // A single block L(w) does not count for w > 2 (the periodic network
  // needs lg w cascaded blocks); find a witness input.
  const Network net = make_block(8);
  bool violated = false;
  std::vector<std::uint64_t> v(8);
  Xoshiro256 rng(1234);
  for (int t = 0; t < 500 && !violated; ++t) {
    for (auto& x : v) x = rng.below(6);
    violated = !check_counting(net, v).ok;
  }
  EXPECT_TRUE(violated);
}

TEST(Counting, BrickWallIsNotACountingNetwork) {
  const Network net = make_brick_wall(8, 4);
  bool violated = false;
  std::vector<std::uint64_t> v(8);
  Xoshiro256 rng(99);
  for (int t = 0; t < 500 && !violated; ++t) {
    for (auto& x : v) x = rng.below(6);
    violated = !check_counting(net, v).ok;
  }
  EXPECT_TRUE(violated);
}

TEST(Counting, InputsReachAllOutputs) {
  for (const std::uint32_t w : {4u, 8u, 16u}) {
    EXPECT_TRUE(all_inputs_reach_all_outputs(make_bitonic(w)));
    EXPECT_TRUE(all_inputs_reach_all_outputs(make_periodic(w)));
    EXPECT_TRUE(all_inputs_reach_all_outputs(make_counting_tree(w)));
    EXPECT_TRUE(all_inputs_reach_all_outputs(make_merger(w)));
    EXPECT_TRUE(all_inputs_reach_all_outputs(make_block(w)));
  }
}

TEST(Counting, KaryTreesCount) {
  
  for (const auto& [w, k] : std::vector<std::pair<std::uint32_t, std::uint32_t>>{
           {9, 3}, {27, 3}, {16, 4}, {64, 4}, {25, 5}}) {
    const Network net = make_counting_tree_k(w, k);
    EXPECT_EQ(net.fan_in(), 1u);
    EXPECT_EQ(net.fan_out(), w);
    EXPECT_TRUE(net.uniform()) << net.name();
    Xoshiro256 trial_rng(w * 131 + k);
    const auto report = check_counting_random(net, trial_rng, 20, 3 * w);
    EXPECT_TRUE(report.ok) << net.name() << ": " << report.failure;
    // One input wire: every count up to 3w is 3w + 1 vectors.
    const auto every = check_counting_exhaustive(net, 3 * w);
    EXPECT_TRUE(every.ok) << net.name() << ": " << every.failure;
  }
}

TEST(Counting, KaryTreeMatchesBinaryTreeAtKTwo) {
  // make_counting_tree_k(w, 2) must be the same network as
  // make_counting_tree(w): same sink for every token.
  const Network a = make_counting_tree(8);
  const Network b = make_counting_tree_k(8, 2);
  NetworkState sa(a), sb(b);
  for (TokenId t = 0; t < 24; ++t) {
    EXPECT_EQ(sa.shepherd(t, t, 0), sb.shepherd(t, t, 0));
  }
}

TEST(Counting, KaryTreeRejectsBadParameters) {
  EXPECT_THROW(make_counting_tree_k(10, 3), std::invalid_argument);
  EXPECT_THROW(make_counting_tree_k(8, 1), std::invalid_argument);
  EXPECT_THROW(make_counting_tree_k(12, 4), std::invalid_argument);
}

TEST(Counting, LargeWidthSpotCheck) {
  const Network net = make_bitonic(32);
  Xoshiro256 rng(777);
  const auto report = check_counting_random(net, rng, 5, 9);
  EXPECT_TRUE(report.ok) << report.failure;
}

}  // namespace
}  // namespace cn
