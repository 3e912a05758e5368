// Graceful-degradation curves: how the paper's consistency guarantees
// and the counting / smoothness properties decay as fault probability
// rises. For each mode a FaultPlan knob (token loss, stuck balancers,
// process crashes, message faults, or a mix) is swept over a probability
// grid; each grid point fans `--trials` seeds out over the parallel
// sweeper and reports violation RATES over completed trials.
//
//   ./bench_faults [--mode all|loss|stuck|crash|msg|mixed|threads]
//                  [--network bitonic] [--width 8] [--trials 100]
//                  [--processes 8] [--ops 4] [--seed 1] [--threads 0]
//                  [--probs 0,0.01,0.02,0.05,0.1,0.2] [--fault_seed 0]
//                  [--timeout_ms 0] [--retries 0] [--wave] [--json]
//
// --wave interprets the simulated backends through the level-synchronous
// wave engine (RunSpec::wave_exec); the curves are byte-identical.
//
// All default modes drive deterministic backends (simulator / msg), so
// the table and --json output are byte-identical at any --threads value.
// The opt-in "threads" mode drives the shared-memory network on real
// threads; its injected fault MIX is deterministic but the observed
// violation rates depend on live interleaving.
#include <iostream>
#include <sstream>
#include <vector>

#include "bench_common.hpp"
#include "fault/fault.hpp"

namespace {

using namespace cn;

struct Mode {
  std::string name;
  std::string backend;
  /// Scales the per-mode knobs from the grid probability p.
  void (*apply)(fault::FaultPlan&, double);
};

const Mode kModes[] = {
    {"loss", "simulator",
     [](fault::FaultPlan& f, double p) { f.p_token_loss = p; }},
    {"stuck", "simulator",
     [](fault::FaultPlan& f, double p) { f.p_stuck_balancer = p; }},
    {"crash", "simulator",
     [](fault::FaultPlan& f, double p) { f.p_process_crash = p; }},
    {"msg", "msg",
     [](fault::FaultPlan& f, double p) {
       f.p_token_loss = p;
       f.p_msg_duplicate = p / 2;
       f.p_msg_delay = p;
     }},
    {"mixed", "simulator",
     [](fault::FaultPlan& f, double p) {
       f.p_token_loss = p;
       f.p_stuck_balancer = p / 2;
       f.p_process_crash = p / 4;
     }},
    {"threads", "concurrent",
     [](fault::FaultPlan& f, double p) {
       f.p_thread_stall = p;
       f.p_thread_abandon = p / 2;
       f.p_process_crash = p / 4;
     }},
};

std::vector<double> parse_probs(const std::string& csv) {
  std::vector<double> probs;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) probs.push_back(parse_double("probs", item));
  }
  return probs;
}

double rate(const engine::SweepStats& st, const std::string& key) {
  if (st.completed == 0) return 0.0;
  const auto it = st.metric_sums.find(key);
  return it == st.metric_sums.end()
             ? 0.0
             : it->second / static_cast<double>(st.completed);
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::string mode_arg = args.get("mode", "all");
  const std::vector<double> probs =
      parse_probs(args.get("probs", "0,0.01,0.02,0.05,0.1,0.2"));
  const bool json = args.get_bool("json", false);

  std::vector<const Mode*> selected;
  for (const Mode& m : kModes) {
    // "all" covers the deterministic modes; real-thread injection is
    // opt-in so default output stays byte-identical at any --threads.
    if (mode_arg == m.name || (mode_arg == "all" && m.name != "threads")) {
      selected.push_back(&m);
    }
  }
  if (selected.empty()) {
    std::cerr << "unknown mode '" << mode_arg
              << "' (loss|stuck|crash|msg|mixed|threads|all)\n";
    return 2;
  }

  std::ostringstream json_series;
  TablePrinter table({"mode", "p", "completed", "errors", "counting",
                      "smooth", "non-lin", "non-SC", "any", "survival"});
  bool first_series = true;
  for (const Mode* mode : selected) {
    if (!first_series) json_series << ",";
    first_series = false;
    json_series << "{\"mode\":\"" << mode->name << "\",\"points\":[";
    bool first_point = true;
    for (const double p : probs) {
      engine::SweepSpec sweep;
      engine::RunSpec& spec = sweep.base;
      spec.backend = mode->backend;
      spec.network = args.get("network", "bitonic");
      spec.width = args.get_uint<std::uint32_t>("width", 8);
      spec.processes = args.get_uint<std::uint32_t>("processes", 8);
      spec.ops_per_process = args.get_uint<std::uint32_t>("ops", 4);
      spec.c_min = args.get_double("c_min", 1.0);
      spec.c_max = args.get_double("c_max", 2.0);
      spec.seed = args.get_uint<std::uint64_t>("seed", 1);
      spec.threads =
          args.get_uint<std::uint32_t>("run_threads", 4, kMaxThreadsFlag);
      spec.ops_per_thread = args.get_uint<std::uint64_t>("ops_per_thread", 50);
      spec.wave_exec = args.get_bool("wave", false);
      spec.fault.enabled = true;
      spec.fault.seed = args.get_uint<std::uint64_t>("fault_seed", 0);
      mode->apply(spec.fault, p);
      sweep.trials = args.get_uint<std::uint64_t>("trials", 100);
      sweep.threads = cn::bench::sweep_threads(args);
      sweep.timeout_ms = args.get_uint<std::uint64_t>("timeout_ms", 0);
      sweep.max_retries = args.get_uint<std::uint32_t>("retries", 0);

      const engine::SweepStats st = engine::sweep_stats(sweep);
      const double counting = rate(st, "counting_violation");
      const double smooth = rate(st, "smoothness_violation");
      // A trial destroyed outright (every operation lost, classified
      // "fault_injected") is maximal degradation: count it as violated
      // instead of silently dropping it from the denominator —
      // otherwise high-p points look BETTER as survivors get rarer.
      const auto destroyed_it = st.error_table.find("fault_injected");
      const double destroyed =
          destroyed_it == st.error_table.end()
              ? 0.0
              : static_cast<double>(destroyed_it->second.count);
      const double any_denom = static_cast<double>(st.completed) + destroyed;
      const double any =
          any_denom > 0
              ? (rate(st, "any_violation") * st.completed + destroyed) /
                    any_denom
              : 0.0;
      const double non_lin =
          st.completed > 0
              ? static_cast<double>(st.lin_violations) / st.completed
              : 0.0;
      const double non_sc =
          st.completed > 0
              ? static_cast<double>(st.sc_violations) / st.completed
              : 0.0;
      // Fraction of requested operations that completed across ALL
      // trials (errored ones contribute zero): monotone decreasing in p
      // even when the per-survivor violation rates saturate.
      const std::uint64_t per_trial_ops =
          spec.backend == "concurrent"
              ? static_cast<std::uint64_t>(spec.threads) * spec.ops_per_thread
              : static_cast<std::uint64_t>(spec.processes) *
                    spec.ops_per_process;
      const double requested =
          static_cast<double>(sweep.trials * per_trial_ops);
      const double survival =
          requested > 0 ? static_cast<double>(st.total_tokens) / requested
                        : 0.0;

      table.add_row({mode->name, fmt_double(p, 3),
                     std::to_string(st.completed), std::to_string(st.errors),
                     fmt_double(counting, 3), fmt_double(smooth, 3),
                     fmt_double(non_lin, 3), fmt_double(non_sc, 3),
                     fmt_double(any, 3), fmt_double(survival, 3)});
      if (!first_point) json_series << ",";
      first_point = false;
      json_series << "{\"p\":" << fmt_double(p, 6)
                  << ",\"stats\":" << engine::to_json(st)
                  << ",\"counting_violation_rate\":" << fmt_double(counting, 6)
                  << ",\"smoothness_violation_rate\":" << fmt_double(smooth, 6)
                  << ",\"lin_violation_rate\":" << fmt_double(non_lin, 6)
                  << ",\"sc_violation_rate\":" << fmt_double(non_sc, 6)
                  << ",\"any_violation_rate\":" << fmt_double(any, 6)
                  << ",\"survival_rate\":" << fmt_double(survival, 6) << "}";
    }
    json_series << "]}";
  }

  if (json) {
    std::cout << "{\"series\":[" << json_series.str() << "]}\n";
  } else {
    std::ostringstream os;
    table.print(os);
    std::cout << os.str();
  }
  return 0;
}
