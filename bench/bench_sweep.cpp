// Generic engine sweep driver: any registered backend x any network x
// any trial count, fanned out over the parallel sweeper, reported
// through the structured results pipeline.
//
//   ./bench_sweep [--backend simulator] [--network bitonic] [--width 8]
//                 [--trials 200] [--threads 0] [--seed 1]
//                 [--c_min 1] [--c_max 2.5] [--local_delay 0]
//                 [--processes 8] [--ops 4] [--timeout_ms 0] [--retries 0]
//                 [--stream] [--wave] [--record <path>] [--replay <path>]
//                 [--json] [--list]
//
// --stream runs every trial against the incremental consistency checker
// (RunSpec::keep_trace = false): same aggregate report, O(open
// operations) trace memory per trial instead of O(tokens). --wave runs
// the simulated backends through the level-synchronous wave interpreter
// (RunSpec::wave_exec = true): byte-identical aggregate report, traversal
// batched level-by-level instead of token-by-token. --record
// writes the trace of a single trial (forces --trials 1) to a file in
// the versioned binary format of trace/serialize.hpp; --replay selects
// the "replay" backend on such a file.
//
// The aggregate report (table or --json) is byte-identical at every
// --threads value for the same seed: per-trial seeds are derived
// deterministically and the reduction runs in trial order. Wall time is
// therefore reported separately on stderr.
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace cn;
  const CliArgs args(argc, argv);

  if (args.get_bool("list", false)) {
    std::cout << "registered backends:\n";
    for (const std::string& name : engine::backend_names()) {
      const engine::TraceSource* src = engine::find_backend(name);
      std::cout << "  " << name << " — " << src->description() << "\n";
    }
    return 0;
  }

  engine::SweepSpec sweep;
  engine::RunSpec& spec = sweep.base;
  spec.backend = args.get("backend", "simulator");
  spec.network = args.get("network", "bitonic");
  spec.width = args.get_uint<std::uint32_t>("width", 8);
  spec.processes = args.get_uint<std::uint32_t>("processes", 8);
  spec.ops_per_process = args.get_uint<std::uint32_t>("ops", 4);
  spec.c_min = args.get_double("c_min", 1.0);
  spec.c_max = args.get_double("c_max", 2.5);
  spec.local_delay_min = args.get_double("local_delay", 0.0);
  spec.seed = args.get_uint<std::uint64_t>("seed", 1);
  spec.ell = args.get_uint<std::uint32_t>("ell", 1);
  spec.threads =
      args.get_uint<std::uint32_t>("run_threads", 4, kMaxThreadsFlag);
  spec.ops_per_thread = args.get_uint<std::uint64_t>("ops_per_thread", 50);
  sweep.trials = args.get_uint<std::uint64_t>("trials", 200);
  sweep.threads = cn::bench::sweep_threads(args);
  sweep.timeout_ms = args.get_uint<std::uint64_t>("timeout_ms", 0);
  sweep.max_retries = args.get_uint<std::uint32_t>("retries", 0);

  spec.keep_trace = !args.get_bool("stream", false);
  spec.wave_exec = args.get_bool("wave", false);
  spec.record_path = args.get("record", "");
  spec.replay_path = args.get("replay", "");
  if (!spec.replay_path.empty()) spec.backend = "replay";
  if (!spec.record_path.empty() && sweep.trials != 1) {
    // A recorded file holds ONE trial's trace; silently overwriting it
    // trials-1 times would record whichever trial finished last.
    std::cerr << "--record forces --trials 1 (was " << sweep.trials << ")\n";
    sweep.trials = 1;
  }

  if (engine::find_backend(spec.backend) == nullptr) {
    std::cerr << "unknown backend '" << spec.backend << "' — registered:";
    for (const std::string& name : engine::backend_names()) {
      std::cerr << " " << name;
    }
    std::cerr << "\n(use --list for descriptions)\n";
    return 2;
  }

  const engine::SweepStats stats = engine::sweep_stats(sweep);
  if (args.get_bool("json", false)) {
    std::cout << engine::to_json(stats) << "\n";
  } else {
    std::cout << engine::format_report(spec, stats);
  }
  std::cerr << "wall time: " << fmt_double(stats.wall_sec, 3) << "s ("
            << (sweep.threads == 0 ? "hw" : std::to_string(sweep.threads))
            << " sweeper threads)\n";
  return stats.errors == stats.trials && stats.trials > 0 ? 1 : 0;
}
