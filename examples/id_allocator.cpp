// Unique-id allocation with audit: worker threads draw ids from a
// counting network (e.g. addresses, shard slots, request tickets — the
// paper's Section 1 use cases), every draw is recorded, and the recorded
// trace is fed to the consistency analyzers to report the observed
// non-linearizability / non-sequential-consistency fractions.
//
//   ./id_allocator [--width 8] [--threads 4] [--ops 500] [--local-delay-us 0]
#include <iostream>
#include <map>

#include "concurrent/concurrent_network.hpp"
#include "concurrent/harness.hpp"
#include "core/constructions.hpp"
#include "trace/consistency.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace cn;
  const CliArgs args(argc, argv);
  const auto width = static_cast<std::uint32_t>(args.get_int("width", 8));
  ConcurrentRunSpec spec;
  spec.threads = static_cast<std::uint32_t>(args.get_int("threads", 4));
  spec.ops_per_thread = static_cast<std::uint64_t>(args.get_int("ops", 500));
  spec.local_delay_ns =
      static_cast<std::uint64_t>(args.get_int("local-delay-us", 0)) * 1000;

  const Network topo = make_bitonic(width);
  ConcurrentNetwork net(topo);
  const ConcurrentRunResult run = run_recorded(net, spec);
  if (!run.ok()) {
    std::cerr << "run failed: " << run.error << "\n";
    return 1;
  }

  const ConsistencyReport rep = analyze(run.trace);
  std::cout << "allocated " << rep.total << " ids from " << topo.name()
            << " at " << static_cast<std::uint64_t>(run.ops_per_sec)
            << " ids/s\n\n";

  // Per-thread view: count of ids, min/max, and whether the thread's own
  // sequence was monotone (the sequential-consistency property).
  TablePrinter t({"thread", "ids", "first", "last", "monotone"});
  std::map<ProcessId, std::vector<const TokenRecord*>> per;
  for (const TokenRecord& r : run.trace) per[r.process].push_back(&r);
  for (auto& [proc, recs] : per) {
    std::sort(recs.begin(), recs.end(),
              [](const TokenRecord* a, const TokenRecord* b) {
                return a->first_seq < b->first_seq;
              });
    bool monotone = true;
    for (std::size_t i = 1; i < recs.size(); ++i) {
      monotone &= recs[i]->value > recs[i - 1]->value;
    }
    t.add_row({std::to_string(proc), std::to_string(recs.size()),
               std::to_string(recs.front()->value),
               std::to_string(recs.back()->value), monotone ? "yes" : "NO"});
  }
  t.print(std::cout);

  std::cout << "\nobserved F_nl=" << fmt_double(rep.f_nl)
            << "  F_nsc=" << fmt_double(rep.f_nsc) << "  ("
            << rep.non_linearizable.size() << " non-linearizable, "
            << rep.non_sequentially_consistent.size()
            << " non-sequentially-consistent ids)\n";
  if (spec.local_delay_ns > 0) {
    std::cout << "local delay between draws: " << spec.local_delay_ns / 1000
              << " us (Theorem 4.1's C_L knob)\n";
  }
  return 0;
}
