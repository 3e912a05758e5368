// Consistency audit of adversarial schedules: reconstructs the paper's
// three-wave execution at a chosen split level on a chosen network
// through the experiment engine's "wave" backend, prints every token's
// interval and value, and reports the inconsistency fractions — a worked
// tour of Section 5.
//
//   ./consistency_audit [--network bitonic|periodic] [--width 8] [--ell 1]
//                       [--transform]   # also run the Theorem 3.2 transform
//                       [--json]        # dump the engine RunResult as JSON
#include <algorithm>
#include <iostream>
#include <string>

#include "core/valency.hpp"
#include "engine/engine.hpp"
#include "sim/adversary.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace cn;
  const CliArgs args(argc, argv);

  engine::RunSpec spec;
  spec.backend = "wave";
  spec.network = args.get("network", "bitonic");
  spec.width = args.get_uint<std::uint32_t>("width", 8);
  spec.ell = args.get_uint<std::uint32_t>("ell", 1);

  const engine::RunResult res = engine::run_backend(spec);
  if (!res.ok()) {
    std::cerr << "wave construction failed: " << res.error << "\n";
    return 1;
  }
  if (args.get_bool("json", false)) {
    std::cout << engine::to_json(res) << "\n";
    return 0;
  }

  const Network& net = *res.exec.net;
  const SplitAnalysis split(net);
  std::cout << net.name() << ": depth=" << net.depth()
            << " sd=" << split.split_depth() << " sp=" << split.split_number()
            << "\n";
  std::cout << "three-wave execution at ell=" << spec.ell << " (ratio used "
            << fmt_double(res.metric("ratio_used"), 3) << ", threshold "
            << fmt_double(res.metric("required_ratio"), 3) << ")\n\n";

  const auto wave1 = static_cast<TokenId>(res.metric("wave1_size"));
  const auto wave2 = static_cast<TokenId>(res.metric("wave2_size"));
  TablePrinter t({"token", "process", "wave", "enters", "exits", "value",
                  "non-lin?", "non-SC?"});
  auto flagged = [](const std::vector<TokenId>& v, TokenId tok) {
    return std::find(v.begin(), v.end(), tok) != v.end();
  };
  for (const TokenRecord& r : res.trace) {
    const std::string wave =
        r.token < wave1 ? "1" : r.token < wave1 + wave2 ? "2" : "3";
    t.add_row({std::to_string(r.token), std::to_string(r.process), wave,
               fmt_double(r.t_in, 1), fmt_double(r.t_out, 1),
               std::to_string(r.value),
               flagged(res.report.non_linearizable, r.token) ? "X" : "",
               flagged(res.report.non_sequentially_consistent, r.token) ? "X"
                                                                        : ""});
  }
  t.print(std::cout);
  std::cout << "\nF_nl=" << fmt_double(res.report.f_nl) << " (paper bound "
            << fmt_double(res.metric("predicted_f_nl")) << ")   F_nsc="
            << fmt_double(res.report.f_nsc) << " (paper bound "
            << fmt_double(res.metric("predicted_f_nsc")) << ")\n";

  if (args.get_bool("transform", false)) {
    std::cout << "\n--- Theorem 3.2 transform ---\n";
    engine::RunSpec base_spec = spec;
    base_spec.distinct_processes = true;
    const engine::RunResult base = engine::run_backend(base_spec);
    if (!base.ok()) {
      std::cerr << "base wave failed: " << base.error << "\n";
      return 1;
    }
    const Theorem32Result tr = run_theorem32_transform(net, base.exec);
    if (!tr.ok()) {
      std::cerr << "transform failed: " << tr.error << "\n";
      return 1;
    }
    std::cout << "base: linearizable=" << tr.base_report.linearizable()
              << " SC=" << tr.base_report.sequentially_consistent() << "\n"
              << "transformed (+" << tr.inserted_per_wire * net.fan_in()
              << " lockstep tokens): SC="
              << tr.transformed_report.sequentially_consistent()
              << "  witness pair: token " << tr.witness_T << " -> inserted "
              << tr.inserted_token << "\n";
  }
  return 0;
}
