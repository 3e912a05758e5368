#include "sim/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <span>
#include <vector>

#include "sim/simulator.hpp"

namespace cn {

namespace {

/// Genome of one candidate schedule: per token, an entry slack and one
/// fast/slow bit per hop.
struct Genome {
  std::vector<double> slack;           // per token, >= 0
  std::vector<std::uint8_t> slow_hop;  // token * hops + h -> 0 fast / 1 slow
};

struct Evaluated {
  TimedExecution exec;
  ConsistencyReport report;
  double score = -1.0;      ///< Primary objective: F_nsc.
  double magnitude = 0.0;   ///< Dense secondary: total inversion depth.

  /// Scalar objective for annealing: the dense magnitude term is scaled
  /// to stay strictly below one fraction step, so it can only break ties.
  double combined(std::uint32_t total_tokens) const {
    const double cap = 0.9 / total_tokens;
    const double norm = static_cast<double>(total_tokens) * total_tokens;
    return score + std::min(magnitude / norm, 1.0) * cap;
  }
};

/// Dense guidance for the hill climber: how "deep" the SC inversions are,
/// not just how many tokens are flagged. Sums per process how far each
/// value falls below the process's running maximum.
double inversion_magnitude(const Trace& trace) {
  std::map<ProcessId, std::vector<const TokenRecord*>> per;
  for (const TokenRecord& r : trace) per[r.process].push_back(&r);
  double total = 0.0;
  for (auto& [p, recs] : per) {
    std::sort(recs.begin(), recs.end(),
              [](const TokenRecord* a, const TokenRecord* b) {
                return a->first_seq < b->first_seq;
              });
    double prefix_max = -1.0;
    for (const TokenRecord* r : recs) {
      const auto v = static_cast<double>(r->value);
      if (prefix_max > v) total += prefix_max - v;
      prefix_max = std::max(prefix_max, v);
    }
  }
  return total;
}

}  // namespace

OptimizerResult optimize_schedule(const Network& net,
                                  const OptimizerSpec& spec) {
  const std::uint32_t d = net.depth();
  const std::uint32_t hops = d;  // d wire delays per token
  const std::uint32_t total =
      spec.processes * spec.tokens_per_process;
  Xoshiro256 rng(spec.seed);

  auto build = [&](const Genome& g) {
    TimedExecution exec;
    exec.net = &net;
    exec.plans.reserve(total);
    exec.times.reserve(std::size_t{total} * (d + 1));
    TokenId id = 0;
    for (ProcessId p = 0; p < spec.processes; ++p) {
      double t = g.slack[p * spec.tokens_per_process];  // initial stagger
      for (std::uint32_t k = 0; k < spec.tokens_per_process; ++k) {
        const std::uint32_t idx = p * spec.tokens_per_process + k;
        if (k > 0) t += spec.local_delay_min + g.slack[idx];
        // The rank is per-process increasing.
        const std::span<double> row =
            exec.add({.token = id++,
                      .process = p,
                      .source = p % net.fan_in(),
                      .rank = k * 1.0 + (idx % 7) * 0.1});
        row[0] = t;
        for (std::uint32_t h = 0; h < hops; ++h) {
          row[h + 1] =
              row[h] + (g.slow_hop[idx * hops + h] ? spec.c_max : spec.c_min);
        }
        t = row[d];
      }
    }
    return exec;
  };

  OptimizerResult out;
  auto evaluate = [&](const Genome& g) {
    Evaluated ev;
    ev.exec = build(g);
    ++out.evaluations;
    const SimulationResult sim = simulate(ev.exec);
    if (!sim.ok()) return ev;  // score -1: infeasible
    ev.report = analyze(sim.trace);
    ev.score = ev.report.f_nsc;
    ev.magnitude = inversion_magnitude(sim.trace);
    return ev;
  };

  auto random_genome = [&] {
    Genome g;
    g.slack.resize(total);
    for (auto& s : g.slack) s = rng.uniform(0.0, 10.0 * spec.c_max);
    g.slow_hop.resize(static_cast<std::size_t>(total) * hops);
    for (auto& b : g.slow_hop) b = static_cast<std::uint8_t>(rng.below(2));
    return g;
  };

  // Simulated annealing with multi-gene moves: SC violations need
  // coordinated token patterns that single greedy flips rarely assemble.
  double best_score = -1.0;
  for (std::uint32_t restart = 0; restart < spec.restarts; ++restart) {
    Genome genome = random_genome();
    Evaluated current = evaluate(genome);
    double temperature = 2.0 / total;
    for (std::uint32_t it = 0; it < spec.iterations; ++it) {
      temperature *= 0.9995;
      Genome mutated = genome;
      const std::uint64_t moves = 1 + rng.below(3);
      for (std::uint64_t m = 0; m < moves; ++m) {
        if (rng.below(10) < 7) {
          const std::size_t i = rng.below(mutated.slow_hop.size());
          mutated.slow_hop[i] ^= 1;
          // Occasionally flip a whole token's hops at once — coarse moves
          // escape plateaus where single flips cannot change any value.
          if (rng.below(4) == 0) {
            const std::size_t tok = i / hops;
            for (std::uint32_t h = 0; h < hops; ++h) {
              mutated.slow_hop[tok * hops + h] = mutated.slow_hop[i];
            }
          }
        } else {
          const std::size_t i = rng.below(mutated.slack.size());
          mutated.slack[i] = rng.uniform(0.0, 10.0 * spec.c_max);
        }
      }
      Evaluated cand = evaluate(mutated);
      const double delta = cand.combined(total) - current.combined(total);
      if (cand.score >= 0.0 &&
          (delta >= 0.0 || rng.unit() < std::exp(delta / temperature))) {
        genome = std::move(mutated);
        current = std::move(cand);
      }
      if (current.score > best_score) {
        best_score = current.score;
        out.best = current.exec;
        out.report = current.report;
        out.best_fraction = std::max(0.0, current.score);
      }
    }
  }
  return out;
}

}  // namespace cn
