// Quickstart: build a bitonic counting network, hit it from several
// threads, and verify the values are unique and gap-free and the output
// wires satisfy the step property.
//
//   ./quickstart [--width 8] [--threads 4] [--ops 1000]
#include <algorithm>
#include <iostream>
#include <thread>
#include <vector>

#include "concurrent/concurrent_network.hpp"
#include "core/constructions.hpp"
#include "core/verify.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace cn;
  const CliArgs args(argc, argv, {"ops", "threads", "width"});
  const auto width = args.get_uint<std::uint32_t>("width", 8);
  const auto threads =
      args.get_uint<std::uint32_t>("threads", 4, kMaxThreadsFlag);
  const auto ops = args.get_uint<std::uint64_t>("ops", 1000);

  // 1. Build the topology (a plain value type) and instantiate it in
  //    shared memory.
  const Network topo = make_bitonic(width);
  ConcurrentNetwork net(topo);
  std::cout << "network: " << topo.name() << "  depth=" << topo.depth()
            << "  balancers=" << topo.num_balancers() << "\n";

  // 2. Each thread shepherds tokens from its own input wire.
  std::vector<std::vector<std::uint64_t>> got(threads);
  std::vector<std::thread> workers;
  for (std::uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      got[t].reserve(ops);
      for (std::uint64_t k = 0; k < ops; ++k) {
        got[t].push_back(net.increment(t % topo.fan_in()));
      }
    });
  }
  for (auto& w : workers) w.join();

  // 3. Verify: all values distinct, no gaps, step property at quiescence.
  std::vector<std::uint64_t> all;
  for (const auto& v : got) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  bool ok = true;
  for (std::uint64_t i = 0; i < all.size(); ++i) ok &= (all[i] == i);
  const auto counts = net.sink_counts();
  const bool step = has_step_property(counts);

  std::cout << "issued " << all.size() << " values: "
            << (ok ? "gap-free and duplicate-free" : "CORRUPT") << "\n";
  std::cout << "step property at quiescence: " << (step ? "holds" : "VIOLATED")
            << "  (sink counts:";
  for (const auto c : counts) std::cout << ' ' << c;
  std::cout << ")\n";
  return ok && step ? 0 : 1;
}
