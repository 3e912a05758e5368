// Tests for the utility layer (src/util): RNG determinism and ranges,
// table formatting, CLI parsing, bit helpers, spin barrier.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "util/bits.hpp"
#include "util/cli.hpp"
#include "util/id_slots.hpp"
#include "util/residue.hpp"
#include "util/rng.hpp"
#include "util/spin_barrier.hpp"
#include "util/table.hpp"

namespace cn {
namespace {

TEST(Bits, PowerOfTwo) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_TRUE(is_pow2(1ull << 63));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(6));
}

TEST(Bits, Log2) {
  EXPECT_EQ(log2_exact(1), 0u);
  EXPECT_EQ(log2_exact(2), 1u);
  EXPECT_EQ(log2_exact(1024), 10u);
  EXPECT_EQ(log2_floor(5), 2u);
  EXPECT_EQ(log2_floor(7), 2u);
  EXPECT_EQ(log2_floor(8), 3u);
}

TEST(Bits, GcdLcm) {
  EXPECT_EQ(gcd_u64(12, 18), 6u);
  EXPECT_EQ(gcd_u64(7, 13), 1u);
  EXPECT_EQ(gcd_u64(0, 5), 5u);
  EXPECT_EQ(lcm_u64(4, 6), 12u);
  EXPECT_EQ(lcm_u64(2, 8), 8u);
}

TEST(IdSlots, NumbersIdsInFirstSeenOrder) {
  IdSlots slots;
  EXPECT_EQ(slots.slot(0xFFFFFFFFu), 0u);
  EXPECT_EQ(slots.slot(0), 1u);
  EXPECT_EQ(slots.slot(0xFFFFFFFFu), 0u);
  EXPECT_FALSE(slots.insert(0));
  EXPECT_TRUE(slots.insert(7));
  EXPECT_EQ(slots.size(), 3u);
  // Many sparse ids grow the table; every id keeps its slot.
  for (std::uint32_t i = 0; i < 5000; ++i) slots.slot(1'000'000 + 977 * i);
  EXPECT_EQ(slots.size(), 5003u);
  for (std::uint32_t i = 0; i < 5000; ++i) {
    EXPECT_EQ(slots.slot(1'000'000 + 977 * i), 3 + i);
  }
  EXPECT_EQ(slots.slot(7), 2u);
  slots.clear();
  EXPECT_EQ(slots.size(), 0u);
  EXPECT_EQ(slots.slot(1'000'000), 0u);
}

TEST(Rng, DeterministicPerSeed) {
  Xoshiro256 a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    EXPECT_EQ(va, b());
    (void)c;
  }
  Xoshiro256 d(42);
  Xoshiro256 e(43);
  int differs = 0;
  for (int i = 0; i < 10; ++i) differs += (d() != e());
  EXPECT_GT(differs, 0);
}

TEST(Rng, BelowIsInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(Rng, UnitIsInHalfOpenInterval) {
  Xoshiro256 rng(8);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BelowOneAlwaysZero) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RoughlyUniform) {
  Xoshiro256 rng(10);
  int buckets[4] = {0, 0, 0, 0};
  constexpr int kN = 40000;
  for (int i = 0; i < kN; ++i) ++buckets[rng.below(4)];
  for (const int b : buckets) {
    EXPECT_GT(b, kN / 4 - kN / 20);
    EXPECT_LT(b, kN / 4 + kN / 20);
  }
}

TEST(Table, AlignsColumns) {
  TablePrinter t({"a", "long_header"});
  t.add_row({"xxxx", "1"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("a     long_header"), std::string::npos);
  EXPECT_NE(out.find("xxxx  1"), std::string::npos);
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(Table, PadsShortRows) {
  TablePrinter t({"a", "b", "c"});
  t.add_row({"1"});
  std::ostringstream os;
  t.print(os);  // must not crash; row padded with empties
  EXPECT_FALSE(os.str().empty());
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(fmt_double(1.0 / 3.0, 4), "0.3333");
  EXPECT_EQ(fmt_double(2.0, 0), "2");
  EXPECT_EQ(fmt_bound(0.5, 0.3333, true), "0.5000 (>= 0.3333)");
  EXPECT_EQ(fmt_bound(0.1, 0.5, false), "0.1000 (<= 0.5000)");
}

TEST(Cli, ParsesAllForms) {
  const char* argv[] = {"prog",     "--alpha=3", "--beta", "7",
                        "--flag",   "--gamma",   "2.5",    "ignored"};
  CliArgs args(8, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("alpha", 0), 3);
  EXPECT_EQ(args.get_int("beta", 0), 7);
  EXPECT_TRUE(args.get_bool("flag", false));
  EXPECT_DOUBLE_EQ(args.get_double("gamma", 0.0), 2.5);
  EXPECT_EQ(args.get_int("missing", 42), 42);
  EXPECT_FALSE(args.has("ignored"));
}

TEST(Cli, BooleanSpellings) {
  const char* argv[] = {"prog", "--a=false", "--b=0", "--c=no",
                        "--d=true", "--e=1",  "--f=yes"};
  CliArgs args(7, const_cast<char**>(argv));
  EXPECT_FALSE(args.get_bool("a", true));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_FALSE(args.get_bool("c", true));
  EXPECT_TRUE(args.get_bool("d", false));
  EXPECT_TRUE(args.get_bool("e", false));
  EXPECT_TRUE(args.get_bool("f", false));
}

// A malformed value throws, naming the flag and the value, instead of
// running with whatever prefix strtoll/strtod could read.
void expect_rejected(const std::function<void()>& get, const std::string& flag,
                     const std::string& value) {
  try {
    get();
    ADD_FAILURE() << "--" << flag << " " << value << " was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--" + flag), std::string::npos) << what;
    EXPECT_NE(what.find("'" + value + "'"), std::string::npos) << what;
  }
}

TEST(Cli, MalformedValuesThrow) {
  const char* argv[] = {"prog",          "--trials", "abc",
                        "--c_max",       "2,5",      "--width=8x",
                        "--seed=",       "--json",   "maybe",
                        "--big=99999999999999999999", "--flag=TRUE"};
  CliArgs args(11, const_cast<char**>(argv));
  expect_rejected([&] { args.get_int("trials", 0); }, "trials", "abc");
  expect_rejected([&] { args.get_double("c_max", 0.0); }, "c_max", "2,5");
  expect_rejected([&] { args.get_int("width", 0); }, "width", "8x");
  expect_rejected([&] { args.get_int("seed", 0); }, "seed", "");
  expect_rejected([&] { args.get_double("seed", 0.0); }, "seed", "");
  expect_rejected([&] { args.get_bool("json", false); }, "json", "maybe");
  expect_rejected([&] { args.get_int("big", 0); }, "big",
                  "99999999999999999999");
  expect_rejected([&] { args.get_bool("flag", false); }, "flag", "TRUE");
  expect_rejected([] { parse_double("probs", "0.1x"); }, "probs", "0.1x");
  // An absent flag still reads its fallback; a string read never throws.
  EXPECT_EQ(args.get_int("absent", 7), 7);
  EXPECT_EQ(args.get("trials", ""), "abc");
}

TEST(Cli, WholeValuesParse) {
  const char* argv[] = {"prog", "--n=-3", "--x=1e-3", "--nan=nan",
                        "--inf=inf"};
  CliArgs args(5, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("n", 0), -3);
  EXPECT_DOUBLE_EQ(args.get_double("x", 0.0), 1e-3);
  // Non-finite delay bounds parse here and are rejected by the spec's
  // own validation, which names them.
  EXPECT_TRUE(std::isnan(args.get_double("nan", 0.0)));
  EXPECT_TRUE(std::isinf(args.get_double("inf", 0.0)));
  EXPECT_DOUBLE_EQ(parse_double("probs", "0.25"), 0.25);
}

TEST(SpinBarrier, SynchronizesThreads) {
  constexpr std::size_t kThreads = 4;
  SpinBarrier barrier(kThreads);
  std::atomic<int> before{0}, after{0};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      before.fetch_add(1);
      barrier.arrive_and_wait();
      // Everyone must have arrived before anyone proceeds.
      EXPECT_EQ(before.load(), static_cast<int>(kThreads));
      after.fetch_add(1);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(after.load(), static_cast<int>(kThreads));
}

TEST(SpinBarrier, IsReusable) {
  constexpr std::size_t kThreads = 3;
  SpinBarrier barrier(kThreads);
  std::atomic<int> round_sum{0};
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int r = 0; r < 10; ++r) {
        barrier.arrive_and_wait();
        round_sum.fetch_add(1);
        barrier.arrive_and_wait();
        // Between the two barriers every thread contributed exactly once
        // per round.
        EXPECT_EQ(round_sum.load() % static_cast<int>(kThreads), 0);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(round_sum.load(), static_cast<int>(kThreads) * 10);
}

TEST(Residue, RoutingAndValueMapRoundTrip) {
  // Lemma 3.1: ticket t routes to t mod n; shard r's local values
  // 0..k-1 are the globals r, r+n, r+2n, ... — a partition of 0..M-1.
  constexpr std::uint32_t n = 4;
  std::vector<bool> seen(32, false);
  for (std::uint32_t r = 0; r < n; ++r) {
    for (std::uint64_t local = 0; local < 8; ++local) {
      const std::uint64_t g = residue::global_value(local, n, r);
      EXPECT_EQ(residue::class_of(g, n), r);
      EXPECT_EQ(residue::local_value(g, n), local);
      EXPECT_FALSE(seen[g]);
      seen[g] = true;
    }
  }
  for (bool b : seen) EXPECT_TRUE(b);
  EXPECT_EQ(residue::shard_of(7, n), 3u);
  EXPECT_EQ(residue::shard_of(8, n), 0u);
}

TEST(Residue, EpochMapRebasesTicketsAndValues) {
  // Epoch starting at base 10 with 2 shards: ticket 13 is epoch-local
  // ticket 3 on shard 1; its class's first local value is global 11.
  const residue::EpochMap e{10, 2};
  EXPECT_EQ(e.local_ticket(13), 3u);
  EXPECT_EQ(e.shard_of(13), 1u);
  EXPECT_EQ(e.shard_of(12), 0u);
  EXPECT_EQ(e.global_value(0, 0), 10u);
  EXPECT_EQ(e.global_value(0, 1), 11u);
  EXPECT_EQ(e.global_value(3, 1), 17u);
  // Consecutive epochs tile the value space: an epoch that dispensed 6
  // tickets hands the next epoch base 16, and the two ranges abut.
  const residue::EpochMap next{16, 4};
  EXPECT_EQ(e.global_value(2, 1), 15u);  // Last slot of epoch 1.
  EXPECT_EQ(next.global_value(0, 0), 16u);
}

TEST(Residue, EmbedSinkIsWellDefinedOverTheLocalClass) {
  // embed_sink(u) must agree for every local value v ≡ u (mod m):
  // (v * 2^ell + r) mod w depends only on v mod m where m = w / 2^ell.
  constexpr std::uint32_t w = 8;
  for (std::uint32_t ell = 1; ell <= 3; ++ell) {
    const std::uint32_t n = residue::shards_at_level(ell);
    const std::uint32_t m = w / n;
    for (std::uint32_t r = 0; r < n; ++r) {
      for (std::uint64_t v = 0; v < 4 * m; ++v) {
        const auto direct =
            static_cast<std::uint32_t>((v * n + r) % w);
        EXPECT_EQ(residue::embed_sink(
                      static_cast<std::uint32_t>(v % m), ell, r, w),
                  direct);
      }
    }
  }
}

}  // namespace
}  // namespace cn
