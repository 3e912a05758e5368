// End-to-end integration: one scenario walks the whole paper —
// construction, structural analysis, adversarial execution, consistency
// analysis, the Theorem 3.2 transform, linearization witnesses, and the
// concurrent implementation — through the umbrella header.
#include <gtest/gtest.h>

#include "cn.hpp"
#include "counting_certificate.hpp"

namespace cn {
namespace {

TEST(Integration, FullPaperPipelineOnBitonic16) {
  // 1. Construction + structure (Sections 2.5-2.6).
  const Network net = make_bitonic(16);
  ASSERT_TRUE(net.uniform());
  ASSERT_EQ(net.depth(), 10u);
  ASSERT_EQ(shallowness(net), 10u);
  ASSERT_EQ(influence_radius(net), 4u);

  // 2. It counts (Section 2.2).
  Xoshiro256 rng(0x17);
  ASSERT_TRUE(check_counting_random(net, rng, 10, 9).ok);
  const VerifyReport every_01 = check_counting_exhaustive(net, 1);
  ASSERT_TRUE(every_01.ok) << every_01.failure;

  // 3. Split structure (Section 5.3).
  const SplitAnalysis split(net);
  ASSERT_TRUE(split.applicable());
  ASSERT_EQ(split.split_depth(), 7u);
  ASSERT_EQ(split.split_number(), 4u);
  ASSERT_TRUE(split.continuously_complete());

  // 4. The adversarial wave (Theorem 5.11) at ℓ = 2.
  const WaveResult wave = run_wave_execution(net, split, {.ell = 2});
  ASSERT_TRUE(wave.ok()) << wave.error;
  EXPECT_NEAR(wave.report.f_nl, 3.0 / 7.0, 1e-12);
  EXPECT_NEAR(wave.report.f_nsc, 1.0 / 7.0, 1e-12);

  // 5. Its trace has no linearization witness, even canonically.
  EXPECT_FALSE(find_linearization(wave.trace).has_value());

  // 6. Lemma 5.1 on the wave trace: the absolute fraction equals the
  //    plain fraction... via the removal property (the full brute force
  //    is exponential; the wave has 28 tokens, so check the removal
  //    direction only).
  EXPECT_TRUE(is_linearizable(
      remove_tokens(wave.trace, wave.report.non_linearizable)));

  // 7. Theorem 3.2: transform the SC-but-not-linearizable variant.
  const WaveResult base =
      run_wave_execution(net, split, {.ell = 2, .distinct_processes = true});
  ASSERT_TRUE(base.ok());
  const Theorem32Result t32 = run_theorem32_transform(net, base.exec);
  ASSERT_TRUE(t32.ok()) << t32.error;
  EXPECT_FALSE(t32.transformed_report.sequentially_consistent());
  EXPECT_NEAR(t32.transformed_timing.ratio(), t32.base_timing.ratio(), 1e-9);

  // 8. Theorem 4.1 in the simulator: the same network under the local
  //    delay bound admits no SC violation.
  WorkloadSpec wl;
  wl.processes = 8;
  wl.tokens_per_process = 3;
  wl.c_min = 1.0;
  wl.c_max = 4.0;
  wl.local_delay_min = net.depth() * (4.0 - 2.0) + 0.1;
  for (int trial = 0; trial < 20; ++trial) {
    const TimedExecution exec = generate_workload(net, wl, rng);
    const SimulationResult sim = simulate(exec);
    ASSERT_TRUE(sim.ok());
    EXPECT_TRUE(is_sequentially_consistent(sim.trace));
  }

  // 9. And the real shared-memory implementation still counts.
  ConcurrentNetwork shared(net);
  ConcurrentRunSpec spec;
  spec.threads = 4;
  spec.ops_per_thread = 100;
  const ConcurrentRunResult run = run_recorded(shared, spec);
  ASSERT_TRUE(run.ok());
  std::vector<Value> values;
  for (const TokenRecord& r : run.trace) values.push_back(r.value);
  std::sort(values.begin(), values.end());
  for (std::size_t i = 0; i < values.size(); ++i) ASSERT_EQ(values[i], i);
}

TEST(Integration, MessagePassingAgreesWithSharedMemoryOnQuiescentCounts) {
  // Same topology, same number of operations: both implementations hand
  // out exactly the values 0..n-1 and satisfy the step property.
  const Network net = make_periodic(8);
  msg::MsgRunSpec ms;
  ms.processes = 8;
  ms.ops_per_process = 25;
  const auto mp = msg::run_message_passing(net, ms);
  ASSERT_TRUE(mp.ok());

  ConcurrentNetwork shared(net);
  ConcurrentRunSpec cs;
  cs.threads = 8;
  cs.ops_per_thread = 25;
  const auto sm = run_recorded(shared, cs);
  ASSERT_TRUE(sm.ok());

  auto sorted_values = [](const Trace& t) {
    std::vector<Value> v;
    for (const TokenRecord& r : t) v.push_back(r.value);
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted_values(mp.trace), sorted_values(sm.trace));
}

}  // namespace
}  // namespace cn
