// Tests for the verification helpers (core/verify).
#include <gtest/gtest.h>

#include <vector>

#include "core/constructions.hpp"
#include "core/sequential.hpp"
#include "core/verify.hpp"
#include "util/rng.hpp"

namespace cn {
namespace {

TEST(StepProperty, AcceptsValidVectors) {
  const std::vector<std::uint64_t> flat{3, 3, 3, 3};
  const std::vector<std::uint64_t> step{4, 4, 3, 3};
  const std::vector<std::uint64_t> edge{1, 0, 0, 0};
  const std::vector<std::uint64_t> empty{};
  const std::vector<std::uint64_t> single{7};
  EXPECT_TRUE(has_step_property(flat));
  EXPECT_TRUE(has_step_property(step));
  EXPECT_TRUE(has_step_property(edge));
  EXPECT_TRUE(has_step_property(empty));
  EXPECT_TRUE(has_step_property(single));
}

TEST(StepProperty, RejectsInvalidVectors) {
  const std::vector<std::uint64_t> increasing{1, 2};
  const std::vector<std::uint64_t> gap{5, 3};
  const std::vector<std::uint64_t> dip{3, 2, 3};
  EXPECT_FALSE(has_step_property(increasing));
  EXPECT_FALSE(has_step_property(gap));
  EXPECT_FALSE(has_step_property(dip));
}

TEST(Safety, HoldsMidFlight) {
  const Network net = make_bitonic(8);
  NetworkState state(net);
  for (TokenId t = 0; t < 8; ++t) state.enter(t, t, t % 8);
  // Advance a few tokens partially.
  (void)state.step(0);
  (void)state.step(1);
  (void)state.step(1);
  EXPECT_TRUE(check_safety(state).ok);
}

TEST(Quiescence, FailsWhenTokensInFlight) {
  const Network net = make_bitonic(4);
  NetworkState state(net);
  state.enter(0, 0, 0);
  const auto report = check_quiescent_step_property(state);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.failure.find("quiescent"), std::string::npos);
}

TEST(Quiescence, PassesAfterDrain) {
  const Network net = make_bitonic(4);
  NetworkState state(net);
  for (TokenId t = 0; t < 10; ++t) (void)state.shepherd(t, t, t % 4);
  EXPECT_TRUE(check_quiescent_step_property(state).ok);
}

// A 0/1 input vector on which the four-block cascade of width 32 is
// 1-smooth but not ordered: it smooths without counting, a gap random
// input vectors rarely hit. The periodic network P(32), five blocks,
// counts it.
const std::vector<std::uint64_t> kCascade32Refutation{
    1, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 1, 0, 0, 1,
    1, 0, 0, 0, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 1};

TEST(CheckCounting, PassesForCountingNetwork) {
  const std::vector<std::uint64_t> counts{5, 0, 2, 7};
  EXPECT_TRUE(check_counting(make_bitonic(4), counts).ok);
  EXPECT_TRUE(check_counting(make_periodic(32), kCascade32Refutation).ok);
}

TEST(CheckCounting, FailsForNonCountingNetwork) {
  // A single column of disjoint balancers cannot balance across pairs.
  const Network net = make_brick_wall(4, 1);
  const std::vector<std::uint64_t> counts{4, 0, 0, 0};
  EXPECT_FALSE(check_counting(net, counts).ok);
  const Network cascade = make_block_cascade(32, 4);
  EXPECT_EQ(smoothness(cascade, kCascade32Refutation), 1u);
  EXPECT_FALSE(check_counting(cascade, kCascade32Refutation).ok);
}

TEST(CheckCountingRandom, IsDeterministicPerSeed) {
  const Network net = make_bitonic(8);
  Xoshiro256 rng1(42), rng2(42);
  const auto a = check_counting_random(net, rng1, 3, 5);
  const auto b = check_counting_random(net, rng2, 3, 5);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.failure, b.failure);
}

TEST(CheckCounting, ZeroTokensIsTriviallyOk) {
  const std::vector<std::uint64_t> counts{0, 0, 0, 0};
  EXPECT_TRUE(check_counting(make_bitonic(4), counts).ok);
}

TEST(Smoothness, CountingNetworksAreOneSmooth) {
  Xoshiro256 rng(0x5A);
  for (const std::uint32_t w : {4u, 8u, 16u}) {
    EXPECT_LE(worst_smoothness(make_bitonic(w), rng, 60, 20), 1u);
    EXPECT_LE(worst_smoothness(make_periodic(w), rng, 60, 20), 1u);
    EXPECT_LE(worst_smoothness(make_counting_tree(w), rng, 60, 20), 1u);
  }
}

TEST(Smoothness, SingleBlockIsNotOneSmooth) {
  // A lone block leaves discrepancies > 1 for some inputs — the reason
  // the periodic network cascades lg w of them. (A single-wire burst is
  // actually smoothed fine; the witnesses are uneven multi-wire inputs.)
  const Network net = make_block(8);
  Xoshiro256 rng(0x5C);
  EXPECT_GT(worst_smoothness(net, rng, 200, 24), 1u);
}

TEST(Smoothness, ImprovesBlockByBlock) {
  Xoshiro256 rng(0x5B);
  std::uint64_t prev = UINT64_MAX;
  for (std::uint32_t k = 1; k <= 4; ++k) {
    const Network net = make_block_cascade(16, k);
    const std::uint64_t s = worst_smoothness(net, rng, 80, 40);
    EXPECT_LE(s, prev) << "cascade of " << k;
    prev = s;
  }
  EXPECT_LE(prev, 1u);  // the full cascade is the periodic network
}

TEST(Smoothness, ExactTokenCountIsPerfectlyFlat) {
  // Exactly m*w tokens spread evenly: smoothness 0.
  const Network net = make_bitonic(8);
  const std::vector<std::uint64_t> counts(8, 4);  // 32 = 4*8 tokens
  EXPECT_EQ(smoothness(net, counts), 0u);
}

}  // namespace
}  // namespace cn
