// E6 — Structure table (paper Propositions 5.6-5.10, Table 1 parameters).
//
// For each construction and width, prints the measured structural
// parameters next to the paper's closed forms:
//   depth d(G), shallowness s(G), influence radius irad(G),
//   split depth sd(G), split number sp(G), continuous completeness and
//   uniform splittability.
//
// Purely structural — no traces are produced, so nothing here goes
// through an engine backend.
#include <iostream>

#include "bench_common.hpp"
#include "core/structure.hpp"
#include "core/valency.hpp"
#include "util/bits.hpp"

namespace {

using namespace cn;
using cn::bench::yes_no;

void row(TablePrinter& t, const Network& net, const std::string& sd_formula,
         const std::string& sp_formula) {
  const SplitAnalysis sa(net);
  t.add_row({net.name(), std::to_string(net.depth()),
             std::to_string(shallowness(net)),
             std::to_string(influence_radius(net)),
             sa.applicable() ? std::to_string(sa.split_depth()) : "-",
             sd_formula,
             sa.applicable() ? std::to_string(sa.split_number()) : "-",
             sp_formula,
             yes_no(sa.applicable() && sa.continuously_complete()),
             yes_no(sa.applicable() && sa.continuously_uniformly_splittable()),
             yes_no(net.uniform())});
}

}  // namespace

int main() {
  using namespace cn;
  std::cout << "E6: structural parameters vs paper closed forms "
               "(Propositions 5.6-5.10)\n\n";
  TablePrinter t({"network", "d(G)", "s(G)", "irad", "sd(G)", "sd formula",
                  "sp(G)", "sp formula", "cont.complete", "cont.splittable",
                  "uniform"});
  for (const std::uint32_t w : {4u, 8u, 16u, 32u, 64u, 128u}) {
    const std::uint32_t k = log2_exact(w);
    row(t, make_bitonic(w), std::to_string((k * k - k + 2) / 2),
        std::to_string(k));
    row(t, make_periodic(w), std::to_string(k * k - k + 1), std::to_string(k));
    row(t, make_counting_tree(w), "-", "-");
  }
  t.print(std::cout);
  std::cout << "\nExpected: sd(B(w)) = (lg^2 w - lg w + 2)/2, "
               "sd(P(w)) = lg^2 w - lg w + 1, sp = lg w for both;\n"
               "the counting tree is uniform but not continuously complete "
               "(its sp column shows the trivial leaf-layer split).\n";
  return 0;
}
