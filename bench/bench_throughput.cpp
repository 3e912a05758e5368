// E8 — Throughput and contention (paper Section 1.1 motivation):
// counting networks vs a single fetch&increment counter, an MCS
// queue-lock counter, a software combining tree, and a diffracting tree.
//
// One binary so the comparison appears as a single table: ops/second per
// structure per thread count, every structure behind its engine backend
// (record_trace off, so the measurement is the bare code path).
// Absolute numbers depend on the host; the shape the paper's motivation
// predicts on a multiprocessor is that the centralized counter degrades
// under contention while the distributed structures hold up. (On a
// single hardware thread, contention cannot manifest as cache-line
// ping-pong, so the centralized counter tends to stay fastest — the
// table still shows the per-op cost of each structure's code path.)
#include <iostream>
#include <thread>

#include "bench_common.hpp"

int main() {
  using namespace cn;
  std::cout << "E8: counter throughput comparison (ops/sec, higher is "
               "better)\n\n";
  const std::uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  std::cout << "hardware threads: " << hw << "\n\n";

  const Network bitonic8 = make_bitonic(8);
  const Network periodic8 = make_periodic(8);

  TablePrinter t({"structure", "1 thread", "2 threads", "4 threads",
                  "8 threads"});
  const std::uint32_t thread_counts[] = {1, 2, 4, 8};
  constexpr std::uint64_t kOps = 20'000;

  struct Row {
    std::string label;
    std::string backend;
    const Network* net;       ///< Topology for network backends.
    std::uint32_t width = 0;  ///< Tree width for baseline tree backends.
    std::uint32_t batch = 0;  ///< concurrent: tokens per increment_batch.
    std::uint32_t shards = 0; ///< service: shard count.
  };
  const Row rows[] = {
      {"fetch&inc (single atomic)", "fetch_inc", nullptr, 0, 0, 0},
      {"MCS queue-lock counter", "mcs", nullptr, 0, 0, 0},
      {"combining tree (16)", "combining_tree", nullptr, 16, 0, 0},
      {"diffracting tree (8)", "diffracting_tree", nullptr, 8, 0, 0},
      {"bitonic network (8)", "concurrent", &bitonic8, 0, 0, 0},
      {"periodic network (8)", "concurrent", &periodic8, 0, 0, 0},
      {"bitonic (8), batch=32", "concurrent", &bitonic8, 0, 32, 0},
      {"service, 2 shards B(8)", "service", &bitonic8, 0, 0, 2},
      {"service, 4 shards B(8)", "service", &bitonic8, 0, 0, 4},
  };

  for (const Row& row : rows) {
    std::vector<std::string> cells{row.label};
    for (const std::uint32_t threads : thread_counts) {
      engine::RunSpec spec;
      spec.backend = row.backend;
      spec.net = row.net;
      if (row.width > 0) spec.width = row.width;
      if (row.batch > 0) spec.batch_size = row.batch;
      if (row.shards > 0) spec.service.shards = row.shards;
      spec.threads = threads;
      spec.ops_per_thread = kOps / threads;
      spec.record_trace = false;  // bare throughput, no recording overhead
      const engine::RunResult res = engine::run_backend(spec);
      if (!res.ok()) {
        std::cerr << row.label << ": " << res.error << "\n";
        return 1;
      }
      cells.push_back(fmt_double(res.metric("ops_per_sec") / 1e6, 3) + "M");
    }
    t.add_row(cells);
  }

  t.print(std::cout);
  std::cout << "\nBatched row: increment_batch(32) pays one RMW per "
               "sub-batch per balancer reached (95 per batch on B(8), ~3 "
               "per token) instead of d(G)+1 per token.\nService rows: "
               "closed-loop "
               "clients against the sharded counting service (queue + "
               "worker round trip per op).\n";
  std::cout << "\nShape notes: the bitonic network costs ~d(G)+1 = "
            << bitonic8.depth() + 1
            << " atomic ops per increment vs 1 for fetch&inc, so it is "
               "slower uncontended; its payoff\n(which needs real "
               "parallelism to observe) is that those ops spread over "
            << bitonic8.num_balancers()
            << " balancers\ninstead of one hot line.\n";
  return 0;
}
