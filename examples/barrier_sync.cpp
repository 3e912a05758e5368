// Barrier synchronization from a counter (paper Section 1.1): each of n
// processes increments a shared counter when it reaches the barrier and
// busy-waits; the process that obtains the round's last value releases
// everyone. A sequentially consistent counter suffices — exactly the
// motivating application the paper gives for studying SC (rather than
// linearizable) counting networks.
//
//   ./barrier_sync [--threads 4] [--rounds 50] [--width 8]
#include <atomic>
#include <iostream>
#include <thread>
#include <vector>

#include "concurrent/concurrent_network.hpp"
#include "core/constructions.hpp"
#include "util/cli.hpp"

namespace {

/// Counting-network-backed reusable barrier. Round r is released once
/// some thread obtains value (r+1)*n - 1; uniqueness of counter values
/// guarantees exactly one releaser per round.
class NetworkBarrier {
 public:
  NetworkBarrier(const cn::Network& topo, std::uint32_t parties)
      : net_(topo), parties_(parties) {}

  void arrive_and_wait(std::uint32_t thread) {
    const std::uint64_t v = net_.increment(thread % net_.network().fan_in());
    const std::uint64_t round = v / parties_;
    if (v % parties_ == parties_ - 1) {
      released_.store(round + 1, std::memory_order_release);
    } else {
      std::uint32_t spins = 0;
      while (released_.load(std::memory_order_acquire) < round + 1) {
        if (++spins % 64 == 0) std::this_thread::yield();
      }
    }
  }

 private:
  cn::ConcurrentNetwork net_;
  const std::uint64_t parties_;
  std::atomic<std::uint64_t> released_{0};
};

}  // namespace

int main(int argc, char** argv) {
  using namespace cn;
  const CliArgs args(argc, argv, {"rounds", "threads", "width"});
  const auto threads =
      args.get_uint<std::uint32_t>("threads", 4, kMaxThreadsFlag);
  const auto rounds = args.get_uint<std::uint64_t>("rounds", 50);
  const auto width = args.get_uint<std::uint32_t>("width", 8);

  const Network topo = make_bitonic(width);
  NetworkBarrier barrier(topo, threads);

  // Each thread bumps a local phase counter per round; after each barrier
  // crossing, all threads must agree on the phase — the classic barrier
  // correctness check.
  std::vector<std::uint64_t> phase(threads, 0);
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> shared_phase{0};
  std::vector<std::thread> workers;
  for (std::uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (std::uint64_t r = 0; r < rounds; ++r) {
        ++phase[t];
        barrier.arrive_and_wait(t);
        // After the barrier, every thread has incremented its phase to
        // at least r+1; the shared phase may only move forward.
        std::uint64_t seen = shared_phase.load(std::memory_order_acquire);
        while (seen < r + 1 &&
               !shared_phase.compare_exchange_weak(seen, r + 1)) {
        }
        if (phase[t] != r + 1) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& w : workers) w.join();

  bool ok = mismatches.load() == 0;
  for (std::uint32_t t = 0; t < threads; ++t) ok &= (phase[t] == rounds);
  std::cout << threads << " threads crossed " << rounds
            << " barrier rounds over " << topo.name() << ": "
            << (ok ? "all phases consistent" : "PHASE MISMATCH") << "\n";
  return ok ? 0 : 1;
}
