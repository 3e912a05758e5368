// Tests reconstructing the paper's adversarial executions:
// Proposition 5.3 (three waves on the bitonic network), Theorem 5.11
// (general split level on bitonic and periodic), Corollaries 5.12/5.13
// (ℓ = lg w), and the Theorem 3.2 insertion transform.
#include <gtest/gtest.h>

#include <cmath>

#include "core/constructions.hpp"
#include "core/valency.hpp"
#include "sim/adversary.hpp"
#include "sim/simulator.hpp"
#include "util/bits.hpp"

namespace cn {
namespace {

std::uint32_t lg(std::uint32_t w) { return log2_exact(w); }

// ----------------------------------------------------- Proposition 5.3

TEST(Proposition53, BitonicThreeWavesGiveOneThirdFractions) {
  // ℓ = 1 on B(w) with ratio just above (lg w + 3)/2: both inconsistency
  // fractions are exactly 1/3 in the constructed execution.
  for (const std::uint32_t w : {4u, 8u, 16u, 32u}) {
    const Network net = make_bitonic(w);
    const SplitAnalysis split(net);
    const WaveResult res = run_wave_execution(net, split, {.ell = 1});
    ASSERT_TRUE(res.ok()) << res.error;
    // Required ratio = 1 + d / lg w = (lg w + 3)/2 (paper's threshold).
    EXPECT_DOUBLE_EQ(res.required_ratio, (lg(w) + 3.0) / 2.0) << "w=" << w;
    EXPECT_EQ(res.wave1_size, w / 2);
    EXPECT_EQ(res.wave2_size, w / 2);
    // All w/2 wave-3 tokens are non-linearizable AND non-SC: both
    // fractions are (w/2) / (3w/2) = 1/3.
    EXPECT_NEAR(res.report.f_nl, 1.0 / 3.0, 1e-12) << "w=" << w;
    EXPECT_NEAR(res.report.f_nsc, 1.0 / 3.0, 1e-12) << "w=" << w;
  }
}

TEST(Proposition53, WaveExecutionSatisfiesItsTimingEnvelope) {
  const Network net = make_bitonic(8);
  const SplitAnalysis split(net);
  const WaveResult res = run_wave_execution(net, split, {.ell = 1});
  ASSERT_TRUE(res.ok()) << res.error;
  // Every wire delay is c_min or c_max, and the achieved ratio exceeds
  // the threshold.
  EXPECT_GT(res.timing.ratio(), res.required_ratio);
  EXPECT_NEAR(res.timing.c_min, 1.0, 1e-9);  // floating-point subtraction noise
}

// -------------------------------------------------------- Theorem 5.11

class Theorem511Test
    : public ::testing::TestWithParam<std::tuple<const char*, std::uint32_t>> {
 protected:
  Network build() const {
    const auto [kind, w] = GetParam();
    return std::string(kind) == "bitonic" ? make_bitonic(w) : make_periodic(w);
  }
};

TEST_P(Theorem511Test, FractionsMatchPredictionAtEverySplitLevel) {
  const Network net = build();
  const SplitAnalysis split(net);
  ASSERT_TRUE(split.applicable());
  for (std::uint32_t ell = 1; ell <= split.split_number(); ++ell) {
    const WaveResult res = run_wave_execution(net, split, {.ell = ell});
    ASSERT_TRUE(res.ok()) << net.name() << " ell=" << ell << ": " << res.error;
    // Theorem 5.11 gives LOWER bounds; the constructed execution achieves
    // them exactly.
    EXPECT_NEAR(res.report.f_nl, res.predicted_f_nl, 1e-12)
        << net.name() << " ell=" << ell;
    EXPECT_NEAR(res.report.f_nsc, res.predicted_f_nsc, 1e-12)
        << net.name() << " ell=" << ell;
    // Required ratio grows with ell (deeper splits need more asynchrony).
    EXPECT_DOUBLE_EQ(
        res.required_ratio,
        1.0 + static_cast<double>(net.depth()) / (lg(net.fan_out()) - ell + 1));
  }
}

TEST_P(Theorem511Test, WaveValuesAreExactlyAsInTheProof) {
  // Wave 2 gets values w(1 - 2^-ℓ) .. w-1; wave 3 gets 0 .. w(1-2^-ℓ)-1.
  const Network net = build();
  const std::uint32_t w = net.fan_out();
  const SplitAnalysis split(net);
  for (std::uint32_t ell = 1; ell <= split.split_number(); ++ell) {
    const WaveResult res = run_wave_execution(net, split, {.ell = ell});
    ASSERT_TRUE(res.ok()) << res.error;
    const std::uint32_t w1 = res.wave1_size;
    std::vector<Value> wave2, wave3, wave1;
    for (const TokenRecord& r : res.trace) {
      if (r.token < w1) {
        wave1.push_back(r.value);
      } else if (r.token < w1 + res.wave2_size) {
        wave2.push_back(r.value);
      } else {
        wave3.push_back(r.value);
      }
    }
    std::sort(wave1.begin(), wave1.end());
    std::sort(wave2.begin(), wave2.end());
    std::sort(wave3.begin(), wave3.end());
    for (std::size_t i = 0; i < wave2.size(); ++i) {
      EXPECT_EQ(wave2[i], w1 + i) << net.name() << " ell=" << ell;
    }
    for (std::size_t i = 0; i < wave3.size(); ++i) {
      EXPECT_EQ(wave3[i], i) << net.name() << " ell=" << ell;
    }
    // Wave 1 is overtaken: its values start at w.
    for (std::size_t i = 0; i < wave1.size(); ++i) {
      EXPECT_EQ(wave1[i], w + i) << net.name() << " ell=" << ell;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Networks, Theorem511Test,
    ::testing::Combine(::testing::Values("bitonic", "periodic"),
                       ::testing::Values(4u, 8u, 16u)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param)) + "_w" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Theorem511, WideNetworkSpotCheck) {
  const Network net = make_bitonic(64);
  const SplitAnalysis split(net);
  const WaveResult res = run_wave_execution(net, split, {.ell = 3});
  ASSERT_TRUE(res.ok()) << res.error;
  EXPECT_NEAR(res.report.f_nl, res.predicted_f_nl, 1e-12);
  EXPECT_NEAR(res.report.f_nsc, res.predicted_f_nsc, 1e-12);
}

TEST(Theorem32, WorksOnPeriodicNetwork) {
  const Network net = make_periodic(8);
  const SplitAnalysis split(net);
  const WaveResult base =
      run_wave_execution(net, split, {.ell = 2, .distinct_processes = true});
  ASSERT_TRUE(base.ok()) << base.error;
  const Theorem32Result res = run_theorem32_transform(net, base.exec);
  ASSERT_TRUE(res.ok()) << res.error;
  EXPECT_FALSE(res.transformed_report.sequentially_consistent());
  EXPECT_EQ(res.inserted_per_wire, 1u);
}

// ------------------------------------------- Corollaries 5.12 and 5.13

TEST(Corollary512, DeepestLevelFractionsForBitonic) {
  for (const std::uint32_t w : {4u, 8u, 16u}) {
    const Network net = make_bitonic(w);
    const SplitAnalysis split(net);
    const WaveResult res =
        run_wave_execution(net, split, {.ell = split.split_number()});
    ASSERT_TRUE(res.ok()) << res.error;
    // Ratio threshold 1 + lg w (lg w + 1)/2 = 1 + d(B(w)).
    EXPECT_DOUBLE_EQ(res.required_ratio, 1.0 + net.depth());
    EXPECT_NEAR(res.report.f_nl, (w - 1.0) / (2.0 * w - 1.0), 1e-12);
    EXPECT_NEAR(res.report.f_nsc, 1.0 / (2.0 * w - 1.0), 1e-12);
  }
}

TEST(Corollary513, DeepestLevelFractionsForPeriodic) {
  for (const std::uint32_t w : {4u, 8u, 16u}) {
    const Network net = make_periodic(w);
    const SplitAnalysis split(net);
    const WaveResult res =
        run_wave_execution(net, split, {.ell = split.split_number()});
    ASSERT_TRUE(res.ok()) << res.error;
    // Ratio threshold 1 + lg^2 w = 1 + d(P(w)).
    EXPECT_DOUBLE_EQ(res.required_ratio, 1.0 + net.depth());
    EXPECT_NEAR(res.report.f_nl, (w - 1.0) / (2.0 * w - 1.0), 1e-12);
    EXPECT_NEAR(res.report.f_nsc, 1.0 / (2.0 * w - 1.0), 1e-12);
  }
}

// ------------------------------------------------------- guard clauses

TEST(WaveExecution, InsufficientExplicitRatioProducesNoViolation) {
  // An explicit c_max below the threshold is allowed (the Theorem 4.1
  // sweep uses it); the attack simply fails: wave 3 cannot overtake
  // wave 1, so the execution is both linearizable and SC.
  const Network net = make_bitonic(8);
  const SplitAnalysis split(net);
  WaveSpec spec;
  spec.ell = 1;
  spec.c_min = 1.0;
  spec.c_max = 2.0;  // below the (lg 8 + 3)/2 = 3 threshold
  const WaveResult res = run_wave_execution(net, split, spec);
  ASSERT_TRUE(res.ok()) << res.error;
  EXPECT_TRUE(res.report.linearizable());
  EXPECT_TRUE(res.report.sequentially_consistent());
}

TEST(WaveExecution, AutoChosenRatioRequiresThreshold) {
  // With c_max unset the construction promises a violation, so a c_min
  // that cannot be exceeded... is impossible; instead check the guard via
  // wave3_extra_delay pushing past the race budget with auto ratio: the
  // auto ratio still violates (delay is not part of the ratio check).
  const Network net = make_bitonic(8);
  const SplitAnalysis split(net);
  const WaveResult res = run_wave_execution(net, split, {.ell = 1});
  ASSERT_TRUE(res.ok());
  EXPECT_FALSE(res.report.sequentially_consistent());
}

TEST(WaveExecution, RejectsOutOfRangeLevel) {
  const Network net = make_bitonic(8);
  const SplitAnalysis split(net);
  EXPECT_FALSE(run_wave_execution(net, split, {.ell = 0}).ok());
  EXPECT_FALSE(
      run_wave_execution(net, split, {.ell = split.split_number() + 1}).ok());
}

TEST(WaveExecution, RejectsCountingTree) {
  const Network net = make_counting_tree(8);
  const SplitAnalysis split(net);
  const WaveResult res = run_wave_execution(net, split, {.ell = 1});
  EXPECT_FALSE(res.ok());
}

TEST(WaveExecution, DistinctProcessVariantIsSCButNotLinearizable) {
  const Network net = make_bitonic(8);
  const SplitAnalysis split(net);
  const WaveResult res =
      run_wave_execution(net, split, {.ell = 1, .distinct_processes = true});
  ASSERT_TRUE(res.ok()) << res.error;
  EXPECT_FALSE(res.report.linearizable());
  EXPECT_TRUE(res.report.sequentially_consistent());
}

// -------------------------------------------------------- Theorem 3.2

TEST(Theorem32, TransformProducesNonSCExecutionOnBitonic) {
  for (const std::uint32_t w : {4u, 8u, 16u}) {
    const Network net = make_bitonic(w);
    const SplitAnalysis split(net);
    const WaveResult base =
        run_wave_execution(net, split, {.ell = 1, .distinct_processes = true});
    ASSERT_TRUE(base.ok()) << base.error;
    const Theorem32Result res = run_theorem32_transform(net, base.exec);
    ASSERT_TRUE(res.ok()) << "w=" << w << ": " << res.error;
    // Base: non-linearizable yet SC. Transformed: non-SC.
    EXPECT_FALSE(res.base_report.linearizable());
    EXPECT_TRUE(res.base_report.sequentially_consistent());
    EXPECT_FALSE(res.transformed_report.sequentially_consistent());
  }
}

TEST(Theorem32, TransformPreservesTheTimingCondition) {
  const Network net = make_bitonic(8);
  const SplitAnalysis split(net);
  const WaveResult base =
      run_wave_execution(net, split, {.ell = 1, .distinct_processes = true});
  ASSERT_TRUE(base.ok());
  const Theorem32Result res = run_theorem32_transform(net, base.exec);
  ASSERT_TRUE(res.ok()) << res.error;
  // Same wire-delay envelope...
  EXPECT_GE(res.transformed_timing.c_min, res.base_timing.c_min - 1e-12);
  EXPECT_LE(res.transformed_timing.c_max, res.base_timing.c_max + 1e-12);
  // ...and the global delay did not shrink (the inserted wave rides inside
  // T''s interval, so it creates no new tighter non-overlapping pair).
  if (res.base_timing.C_g && res.transformed_timing.C_g) {
    EXPECT_GE(*res.transformed_timing.C_g, *res.base_timing.C_g - 1e-12);
  }
}

TEST(Theorem32, InsertedTokenBelongsToWitnessProcessAndGetsSmallValue) {
  const Network net = make_bitonic(8);
  const SplitAnalysis split(net);
  const WaveResult base =
      run_wave_execution(net, split, {.ell = 1, .distinct_processes = true});
  ASSERT_TRUE(base.ok());
  const Theorem32Result res = run_theorem32_transform(net, base.exec);
  ASSERT_TRUE(res.ok()) << res.error;
  // The inserted token is among the flagged non-SC tokens.
  const auto& flagged = res.transformed_report.non_sequentially_consistent;
  EXPECT_NE(std::find(flagged.begin(), flagged.end(), res.inserted_token),
            flagged.end());
  // Regular network: exactly one token per input wire was inserted.
  EXPECT_EQ(res.inserted_per_wire, 1u);
}

TEST(Theorem32, RegularNetworksNeedOneTokenPerWire) {
  // The LCM multiplier is 1 for the regular constructions and w for the
  // counting tree (fan-in 1, (1,2) toggles at every level).
  const Network bitonic = make_bitonic(8);
  const SplitAnalysis split(bitonic);
  const WaveResult base = run_wave_execution(bitonic, split,
                                             {.ell = 1, .distinct_processes = true});
  ASSERT_TRUE(base.ok());
  const Theorem32Result res = run_theorem32_transform(bitonic, base.exec);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.inserted_per_wire, 1u);
}

TEST(Theorem32, WorksOnTheCountingTreeWithLcmWave) {
  // The tree's (1,2) toggles need the LCM-scaled wave: w tokens on the
  // single input wire so every level receives a multiple of 2.
  const Network net = make_counting_tree(4);
  Xoshiro256 rng(0x32);
  const TimedExecution base =
      find_nonlinearizable_sc_execution(net, 1.0, 3.0, 50'000, rng);
  ASSERT_FALSE(base.plans.empty()) << "no base execution found";
  const Theorem32Result res = run_theorem32_transform(net, base);
  ASSERT_TRUE(res.ok()) << res.error;
  EXPECT_EQ(res.inserted_per_wire, 4u);  // = w on the one input wire
  EXPECT_TRUE(res.base_report.sequentially_consistent());
  EXPECT_FALSE(res.transformed_report.sequentially_consistent());
  EXPECT_LE(res.transformed_timing.c_max, res.base_timing.c_max + 1e-9);
  EXPECT_GE(res.transformed_timing.c_min, res.base_timing.c_min - 1e-9);
}

TEST(Theorem32, FinderReturnsQualifyingExecutions) {
  const Network net = make_counting_tree(8);
  Xoshiro256 rng(99);
  const TimedExecution exec =
      find_nonlinearizable_sc_execution(net, 1.0, 3.0, 50'000, rng);
  ASSERT_FALSE(exec.plans.empty());
  const SimulationResult sim = simulate(exec);
  ASSERT_TRUE(sim.ok());
  const ConsistencyReport rep = analyze(sim.trace);
  EXPECT_FALSE(rep.linearizable());
  EXPECT_TRUE(rep.sequentially_consistent());
}

TEST(Theorem32, FinderGivesUpGracefully) {
  // At ratio 1 (synchronous), no inversion is possible: empty result.
  const Network net = make_bitonic(4);
  Xoshiro256 rng(1);
  const TimedExecution exec =
      find_nonlinearizable_sc_execution(net, 1.0, 1.0, 200, rng);
  EXPECT_TRUE(exec.plans.empty());
}

TEST(Theorem32, RejectsLinearizableBase) {
  const Network net = make_bitonic(4);
  TimedExecution exec;
  exec.net = &net;
  add_uniform_plan(exec, 0, 0, 0, 0.0, 1.0);
  const Theorem32Result res = run_theorem32_transform(net, exec);
  EXPECT_FALSE(res.ok());
}

}  // namespace
}  // namespace cn
