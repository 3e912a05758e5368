// Draws the paper's network constructions as ASCII art (Figures 2-6) and
// prints their structural profile — handy for building intuition about
// layers, split depths, and valencies.
//
//   ./draw_networks [--width 8] [--network bitonic|periodic|merger|block|tree]
#include <iostream>

#include "core/constructions.hpp"
#include "core/render.hpp"
#include "core/valency.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace cn;
  const CliArgs args(argc, argv, {"network", "width"});
  const auto width = args.get_uint<std::uint32_t>("width", 8);
  const std::string kind = args.get("network", "all");

  auto show = [](const Network& net) {
    std::cout << render_ascii(net) << "\n";
    const SplitAnalysis sa(net);
    if (sa.applicable()) {
      std::cout << "split depth " << sa.split_depth() << ", split number "
                << sa.split_number() << "; split layers at:";
      for (std::uint32_t ell = 1; ell <= sa.split_number(); ++ell) {
        std::cout << ' ' << sa.split_layer_abs(ell);
      }
      std::cout << "\n\n";
    }
  };

  if (kind == "all" || kind == "bitonic") show(make_bitonic(width));
  if (kind == "all" || kind == "merger") show(make_merger(width));
  if (kind == "all" || kind == "block") show(make_block(width));
  if (kind == "all" || kind == "periodic") show(make_periodic(width));
  if (kind == "all" || kind == "tree") {
    std::cout << render_summary(make_counting_tree(width)) << "\n";
  }
  return 0;
}
