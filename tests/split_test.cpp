// SplitPlan: certification against Props 5.6-5.10, agreement with
// SplitAnalysis, and the two differential faces of Lemma 3.1's modular
// counting — (1) the standalone subnetwork's (value, sink) sequence at
// residue class r embeds byte-identically onto the full network's
// sequential traversal restricted to tickets ≡ r (mod 2^ell), and
// (2) fed the full network's per-entry-wire token counts, the
// standalone subnetwork reproduces the full network's internal
// balancer history variables and sink counts below the split layer.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/constructions.hpp"
#include "core/sequential.hpp"
#include "core/split.hpp"
#include "core/valency.hpp"
#include "core/verify.hpp"
#include "util/residue.hpp"
#include "util/rng.hpp"

namespace cn {
namespace {

std::uint32_t lg(std::uint32_t w) {
  std::uint32_t l = 0;
  while ((1u << l) < w) ++l;
  return l;
}

TEST(SplitPlan, BitonicFormulas) {
  for (std::uint32_t w : {2u, 4u, 8u, 16u, 32u}) {
    const Network net = make_bitonic(w);
    const SplitPlan plan(net);
    const std::uint32_t lgw = lg(w);
    ASSERT_TRUE(plan.applicable()) << "B(" << w << "): " << plan.reason();
    EXPECT_EQ(plan.max_level(), lgw) << "sp(B(" << w << "))";
    EXPECT_EQ(plan.split_depth(), (lgw * lgw - lgw + 2) / 2)
        << "sd(B(" << w << "))";
  }
}

TEST(SplitPlan, SplitLayersAgreeWithSplitAnalysis) {
  // The split tree's level-ell layer is the split sequence's ell-th: both
  // come from find_split_level, the tree on every group and the sequence
  // on the ≺-maximal one.
  for (std::uint32_t w = 2; w <= 64; w *= 2) {
    for (const Network& net : {make_bitonic(w), make_periodic(w)}) {
      const SplitPlan plan(net);
      const SplitAnalysis analysis(net);
      ASSERT_TRUE(plan.applicable()) << net.name() << ": " << plan.reason();
      ASSERT_TRUE(analysis.applicable()) << net.name();
      ASSERT_EQ(plan.max_level(), lg(w)) << net.name();
      ASSERT_EQ(analysis.split_number(), lg(w)) << net.name();
      for (std::uint32_t ell = 1; ell <= lg(w); ++ell) {
        EXPECT_EQ(plan.split_layer_abs(ell), analysis.split_layer_abs(ell))
            << net.name() << " level " << ell;
      }
    }
  }
}

TEST(SplitPlan, ExtractedPartsAreUniform) {
  for (std::uint32_t w = 2; w <= 64; w *= 2) {
    for (const Network& net : {make_bitonic(w), make_periodic(w)}) {
      const SplitPlan plan(net);
      ASSERT_TRUE(plan.applicable()) << net.name();
      for (std::uint32_t ell = 0; ell <= plan.max_level(); ++ell) {
        for (const Subnetwork& part : plan.extract(ell)) {
          EXPECT_TRUE(part.net->uniform()) << part.net->name();
        }
      }
    }
  }
}

TEST(SplitPlan, PeriodicFormulas) {
  for (std::uint32_t w : {4u, 8u, 16u}) {
    const Network net = make_periodic(w);
    const SplitPlan plan(net);
    const std::uint32_t lgw = lg(w);
    ASSERT_TRUE(plan.applicable()) << "P(" << w << "): " << plan.reason();
    EXPECT_EQ(plan.max_level(), lgw) << "sp(P(" << w << "))";
    EXPECT_EQ(plan.split_depth(), lgw * lgw - lgw + 1) << "sd(P(" << w << "))";
  }
}

TEST(SplitPlan, CountingTreeIsNotUniformlySplittable) {
  const SplitPlan plan(make_counting_tree(8));
  EXPECT_FALSE(plan.applicable());
  EXPECT_EQ(plan.max_level(), 0u);
  EXPECT_FALSE(plan.reason().empty());
}

TEST(SplitPlan, GroupsPartitionAndHalveEachLevel) {
  const Network net = make_bitonic(8);
  const SplitPlan plan(net);
  ASSERT_TRUE(plan.applicable());
  for (std::uint32_t ell = 0; ell <= plan.max_level(); ++ell) {
    const std::vector<SinkSet>& groups = plan.groups(ell);
    ASSERT_EQ(groups.size(), 1u << ell);
    std::vector<bool> seen(net.fan_out(), false);
    for (const SinkSet& g : groups) {
      EXPECT_EQ(sinkset_count(g), net.fan_out() >> ell);
      for (std::uint32_t j = 0; j < net.fan_out(); ++j) {
        if ((g[j / 64] >> (j % 64)) & 1) {
          EXPECT_FALSE(seen[j]) << "sink " << j << " in two groups";
          seen[j] = true;
        }
      }
    }
    for (std::uint32_t j = 0; j < net.fan_out(); ++j) {
      EXPECT_TRUE(seen[j]) << "sink " << j << " unserved at level " << ell;
    }
  }
}

TEST(SplitPlan, PartsCountUnderBalancedCyclicFeeding) {
  // Every part, fed one token per entry in its feed order cyclically,
  // hands out a gap-free value set at every point — that is the feeding
  // discipline the elastic shard worker uses, and verify_extraction's
  // prefix + cycle-return checks certify it for every token count. The
  // spot check here drives each part directly for three-plus cycles and
  // asserts the issued value set is exactly {0..k-1} after every token.
  for (const Network& net :
       {make_bitonic(8), make_bitonic(32), make_periodic(8)}) {
    const SplitPlan plan(net);
    ASSERT_TRUE(plan.applicable()) << net.name();
    EXPECT_TRUE(verify_extraction(plan, plan.max_level()).empty())
        << net.name() << ": " << verify_extraction(plan, plan.max_level());
    EXPECT_EQ(operational_max_level(plan), plan.max_level()) << net.name();
    for (std::uint32_t ell = 0; ell <= plan.max_level(); ++ell) {
      const std::vector<Subnetwork> subs = plan.extract(ell);
      ASSERT_EQ(subs.size(), 1u << ell);
      const std::uint32_t m = net.fan_out() >> ell;
      for (const Subnetwork& sub : subs) {
        ASSERT_EQ(sub.net->fan_in(), m) << sub.net->name();
        ASSERT_EQ(sub.net->fan_out(), m) << sub.net->name();
        ASSERT_EQ(sub.sinks.size(), m);
        ASSERT_EQ(sub.entry_wires.size(), m);
        ASSERT_EQ(sub.feed_order.size(), m);
        NetworkState state(*sub.net);
        std::vector<bool> issued(3 * m + 2, false);
        for (std::uint64_t k = 0; k < 3ull * m + 2; ++k) {
          const Value v = state.shepherd(
              static_cast<TokenId>(k), 0,
              sub.feed_order[static_cast<std::uint32_t>(k % m)]);
          ASSERT_LT(v, issued.size());
          ASSERT_FALSE(issued[v]) << sub.net->name() << " duplicate " << v;
          issued[v] = true;
          for (std::uint64_t x = 0; x <= k; ++x) {
            ASSERT_TRUE(issued[x]) << sub.net->name() << " gap at " << x
                                   << " after " << k + 1 << " tokens";
          }
        }
      }
    }
  }
}

TEST(SplitPlan, PartsAreNotArbitraryInputCountingNetworks) {
  // The parts are merger TAILS, not counting networks: embedded below
  // the split layer they only ever see the balanced entry patterns the
  // split-layer balancers produce. Unbalanced input counts break the
  // step property — for bitonic parts as much as periodic ones — which
  // is exactly why the service must feed them in balanced cyclic order
  // rather than pushing whole batches into one entry.
  Xoshiro256 rng(42);
  for (const Network& net : {make_bitonic(8), make_periodic(8)}) {
    const SplitPlan plan(net);
    ASSERT_TRUE(plan.applicable()) << net.name();
    bool any_violation = false;
    for (const Subnetwork& sub : plan.extract(1)) {
      const VerifyReport rep = check_counting_random(*sub.net, rng, 10, 16);
      any_violation = any_violation || !rep.ok;
    }
    EXPECT_TRUE(any_violation)
        << net.name() << " level-1 parts counted under random skewed inputs";
  }
}

/// Full-network entry bookkeeping for one split level: which group each
/// token physically entered, and on which of the group's entry wires.
struct EntryTrace {
  /// entries[g][j] = local entry-wire index the j-th token to reach
  /// group g crossed (arrival order).
  std::vector<std::vector<std::uint32_t>> entries;
  std::vector<std::pair<Value, std::uint32_t>> full;  ///< Per-token.
};

EntryTrace trace_with_entries(const Network& net,
                              const std::vector<Subnetwork>& subs,
                              std::uint64_t tokens) {
  // Map each group's full-network entry wires back to (group, local
  // source). A token crosses exactly one such wire: entry-wire
  // producers live outside the group, and once inside, every hop is
  // internal.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> entry_of(
      net.num_wires(), {UINT32_MAX, 0});
  for (std::uint32_t g = 0; g < subs.size(); ++g) {
    for (std::uint32_t i = 0; i < subs[g].entry_wires.size(); ++i) {
      entry_of[subs[g].entry_wires[i]] = {g, i};
    }
  }
  EntryTrace trace;
  trace.entries.resize(subs.size());
  NetworkState state(net);
  for (std::uint64_t t = 0; t < tokens; ++t) {
    state.enter(static_cast<TokenId>(t), 0,
                static_cast<std::uint32_t>(t % net.fan_in()));
    Step last;
    while (!state.done(static_cast<TokenId>(t))) {
      last = state.step(static_cast<TokenId>(t));
      if (last.kind == Step::Kind::kBalancer) {
        const WireIndex out = net.balancer(last.node).out[last.out_port];
        if (entry_of[out].first != UINT32_MAX) {
          trace.entries[entry_of[out].first].push_back(entry_of[out].second);
        }
      }
    }
    trace.full.emplace_back(last.value, last.node);
  }
  return trace;
}

// The acceptance differential: subnetwork traversal at residue class r
// is byte-identical to the full-network traversal restricted to tickets
// ≡ r (mod 2^ell), under the Lemma 3.1 embedding
//   global value = local value * 2^ell + r
//   global sink  = (local sink * 2^ell + r) mod w.
// The standalone subnetwork replays the entry sequence the full
// network's split-layer balancers delivered — which the test also
// checks is exactly the cyclic repetition of the part's recorded
// feed_order. Token count is a multiple of w so every class and every
// group see exactly tokens/2^ell tokens.
TEST(SplitPlan, ResidueRestrictedTraversalIsByteIdentical) {
  for (const Network& net :
       {make_bitonic(8), make_bitonic(32), make_periodic(8)}) {
    const SplitPlan plan(net);
    ASSERT_TRUE(plan.applicable()) << net.name();
    const std::uint32_t w = net.fan_out();
    const std::uint64_t tokens = 6ull * w;
    for (std::uint32_t ell = 1; ell <= plan.max_level(); ++ell) {
      const std::uint32_t n = residue::shards_at_level(ell);
      const std::vector<Subnetwork> subs = plan.extract(ell);
      const EntryTrace trace = trace_with_entries(net, subs, tokens);
      for (std::uint32_t r = 0; r < n; ++r) {
        // The full traversal restricted to tickets ≡ r (mod 2^ell).
        std::vector<std::pair<Value, std::uint32_t>> restricted;
        for (std::uint64_t t = r; t < tokens; t += n) {
          restricted.push_back(trace.full[t]);
        }
        // The standalone subnetwork at class r replays group r's entry
        // sequence; its (value, sink) pairs embed via Lemma 3.1.
        const std::vector<std::uint32_t>& feed = trace.entries[r];
        ASSERT_EQ(feed.size(), restricted.size())
            << net.name() << " level " << ell << " class " << r;
        // The delivered entry sequence is the feed order, repeated.
        for (std::uint64_t j = 0; j < feed.size(); ++j) {
          ASSERT_EQ(feed[j],
                    subs[r].feed_order[j % subs[r].feed_order.size()])
              << net.name() << " level " << ell << " class " << r
              << " token " << j;
        }
        NetworkState state(*subs[r].net);
        std::vector<std::pair<Value, std::uint32_t>> embedded;
        embedded.reserve(feed.size());
        for (std::uint64_t j = 0; j < feed.size(); ++j) {
          state.enter(static_cast<TokenId>(j), 0, feed[j]);
          Step last;
          while (!state.done(static_cast<TokenId>(j))) {
            last = state.step(static_cast<TokenId>(j));
          }
          embedded.emplace_back(residue::global_value(last.value, n, r),
                                residue::embed_sink(last.node, ell, r, w));
        }
        EXPECT_EQ(embedded, restricted)
            << net.name() << " level " << ell << " class " << r;
      }
    }
  }
}

// Structural differential: fed the SAME per-entry-wire token counts the
// full network delivered, the standalone subnetwork's quiescent history
// variables (per-port balancer counts, sink counts) are byte-identical
// to the full network's on the extracted balancers — extraction
// preserves not just the counting property but the exact state.
TEST(SplitPlan, InternalStateMatchesFullNetworkBelowSplitLayer) {
  for (const Network& net :
       {make_bitonic(8), make_bitonic(32), make_periodic(8)}) {
    const SplitPlan plan(net);
    ASSERT_TRUE(plan.applicable()) << net.name();
    const std::uint64_t tokens = 5ull * net.fan_out() + 11;
    NetworkState full(net);
    for (std::uint64_t t = 0; t < tokens; ++t) {
      full.shepherd(static_cast<TokenId>(t), 0,
                    static_cast<std::uint32_t>(t % net.fan_in()));
    }
    const auto wire_count = [&](WireIndex wi) -> std::uint64_t {
      const Endpoint& from = net.wire(wi).from;
      if (from.kind == Endpoint::Kind::kSource) {
        return full.source_count(from.index);
      }
      return full.balancer_out_count(from.index, from.port);
    };
    for (std::uint32_t ell = 1; ell <= plan.max_level(); ++ell) {
      for (const Subnetwork& sub : plan.extract(ell)) {
        NetworkState state(*sub.net);
        TokenId next = 0;
        for (std::uint32_t i = 0; i < sub.entry_wires.size(); ++i) {
          const std::uint64_t k = wire_count(sub.entry_wires[i]);
          for (std::uint64_t j = 0; j < k; ++j) {
            state.shepherd(next++, 0, i);
          }
        }
        for (std::size_t b = 0; b < sub.balancers.size(); ++b) {
          const Balancer& bal = sub.net->balancer(static_cast<NodeIndex>(b));
          for (PortIndex p = 0; p < bal.fan_in(); ++p) {
            EXPECT_EQ(state.balancer_in_count(static_cast<NodeIndex>(b), p),
                      full.balancer_in_count(sub.balancers[b], p))
                << sub.net->name() << " balancer " << b << " in " << p;
          }
          for (PortIndex p = 0; p < bal.fan_out(); ++p) {
            EXPECT_EQ(state.balancer_out_count(static_cast<NodeIndex>(b), p),
                      full.balancer_out_count(sub.balancers[b], p))
                << sub.net->name() << " balancer " << b << " out " << p;
          }
        }
        for (std::uint32_t u = 0; u < sub.sinks.size(); ++u) {
          EXPECT_EQ(state.sink_count(u), full.sink_count(sub.sinks[u]))
              << sub.net->name() << " sink " << u;
        }
      }
    }
  }
}

TEST(SplitPlan, MaxLevelSubnetworksAreBalancerFreeWires) {
  const Network net = make_bitonic(8);
  const SplitPlan plan(net);
  ASSERT_TRUE(plan.applicable());
  const std::vector<Subnetwork> subs = plan.extract(plan.max_level());
  ASSERT_EQ(subs.size(), 8u);
  for (std::uint32_t r = 0; r < subs.size(); ++r) {
    EXPECT_EQ(subs[r].net->num_balancers(), 0u);
    EXPECT_EQ(subs[r].net->fan_in(), 1u);
    EXPECT_EQ(subs[r].net->fan_out(), 1u);
    NetworkState state(*subs[r].net);
    for (TokenId t = 0; t < 5; ++t) {
      EXPECT_EQ(state.shepherd(t, 0, 0), t);
    }
  }
}

TEST(SplitPlan, ExtractBeyondMaxLevelThrows) {
  const SplitPlan plan(make_bitonic(4));
  ASSERT_TRUE(plan.applicable());
  EXPECT_THROW(plan.extract(plan.max_level() + 1), std::out_of_range);
}

}  // namespace
}  // namespace cn
