#include "sim/adversary.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "sim/simulator.hpp"
#include "sim/workload.hpp"
#include "util/bits.hpp"

namespace cn {

namespace {

constexpr ProcessId kWave1ProcessBase = 1'000'000;
constexpr ProcessId kWave3FreshProcessBase = 2'000'000;

}  // namespace

WaveResult build_wave_execution(const Network& net, const SplitAnalysis& split,
                                const WaveSpec& spec) {
  WaveResult result;
  const std::uint32_t w = net.fan_out();
  if (net.fan_in() != w || !is_pow2(w)) {
    result.error = "wave construction needs fan-in == fan-out == power of two";
    return result;
  }
  if (!split.applicable() || !split.continuously_complete() ||
      !split.continuously_uniformly_splittable()) {
    result.error = "network is not continuously complete / uniformly splittable";
    return result;
  }
  if (spec.ell < 1 || spec.ell > split.split_number()) {
    result.error = "split level out of range";
    return result;
  }

  const std::uint32_t d = net.depth();
  const std::uint32_t L = split.split_layer_abs(spec.ell);  // speed-switch layer
  const std::uint32_t delta = split.race_depth(spec.ell);   // hops in the race
  result.required_ratio = 1.0 + static_cast<double>(d) / delta;

  const double c_min = spec.c_min;
  const double c_max =
      spec.c_max > 0 ? spec.c_max : c_min * result.required_ratio * 1.02 + 1e-6;
  // With an auto-chosen c_max the caller expects the attack to succeed;
  // an explicit c_max may deliberately be too small (e.g. the Theorem 4.1
  // sweep probes where the attack stops working).
  if (spec.c_max <= 0 && c_max / c_min <= result.required_ratio) {
    result.error = "c_max/c_min does not exceed the required ratio";
    return result;
  }

  const std::uint32_t wave2_size = w >> spec.ell;
  const std::uint32_t wave1_size = w - wave2_size;
  const std::uint32_t wave3_size = wave1_size;
  result.wave1_size = wave1_size;
  result.wave2_size = wave2_size;
  result.wave3_size = wave3_size;

  TimedExecution& exec = result.exec;
  exec.net = &net;
  TokenId next_token = 0;

  // Wave 1: one token per source 0..wave1_size-1, fresh processes, slow
  // throughout (one wire per c_max).
  for (std::uint32_t i = 0; i < wave1_size; ++i) {
    add_uniform_plan(exec, next_token++, kWave1ProcessBase + i, i,
                     /*t_in=*/0.0, c_max, /*rank=*/static_cast<double>(i));
  }

  // Wave 2: processes p_0..p_{wave2_size-1}, entering simultaneously with
  // wave 1 but ordered after it at every balancer; slow until crossing the
  // ell-th split layer (absolute layer L), fast afterwards.
  for (std::uint32_t i = 0; i < wave2_size; ++i) {
    const std::span<double> row = exec.add(
        {.token = next_token++, .process = i, .source = i, .rank = 10'000.0 + i});
    for (std::uint32_t k = 0; k <= d; ++k) {
      if (k + 1 <= L) {
        row[k] = k * c_max;
      } else {
        row[k] = (L - 1) * c_max + (k - (L - 1)) * c_min;
      }
    }
  }
  const double t2 = (L - 1) * c_max + delta * c_min  // wave-2 exit time
                    + spec.wave3_extra_delay;        // + the C_L timer

  // Wave 3: enters when wave 2's local delay expires, fast throughout. The first
  // wave2_size tokens reuse processes p_i; the rest are fresh (they may
  // still overlap wave 1, which belongs to other processes).
  for (std::uint32_t i = 0; i < wave3_size; ++i) {
    const ProcessId proc = spec.distinct_processes
                               ? kWave3FreshProcessBase + i
                               : (i < wave2_size ? i : kWave3FreshProcessBase + i);
    add_uniform_plan(exec, next_token++, proc, i, t2, c_min, 20'000.0 + i);
  }

  const double pow2 = std::ldexp(1.0, -static_cast<int>(spec.ell));  // 2^-ell
  result.predicted_f_nl = (1.0 - pow2) / (2.0 - pow2);
  result.predicted_f_nsc = pow2 / (2.0 - pow2);
  result.timing = measure_timing(exec);
  return result;
}

WaveResult run_wave_execution(const Network& net, const SplitAnalysis& split,
                              const WaveSpec& spec) {
  WaveResult result = build_wave_execution(net, split, spec);
  if (!result.ok()) return result;
  SimulationResult sim = simulate(result.exec);
  if (!sim.ok()) {
    result.error = "simulation failed: " + sim.error;
    return result;
  }
  result.trace = std::move(sim.trace);
  result.report = analyze(result.trace);
  return result;
}

TimedExecution find_nonlinearizable_sc_execution(const Network& net,
                                                 double c_min, double c_max,
                                                 std::uint64_t max_trials,
                                                 Xoshiro256& rng) {
  WorkloadSpec spec;
  // Enough concurrency to make inversions likely even on narrow networks
  // (the counting tree has a single input wire).
  spec.processes = std::max(12u, 3 * net.fan_in());
  spec.tokens_per_process = 3;
  spec.c_min = c_min;
  spec.c_max = c_max;
  spec.extreme_delays = true;
  for (std::uint64_t trial = 0; trial < max_trials; ++trial) {
    TimedExecution exec = generate_workload(net, spec, rng);
    const SimulationResult sim = simulate(exec);
    if (!sim.ok()) continue;
    const ConsistencyReport rep = analyze(sim.trace);
    if (!rep.linearizable() && rep.sequentially_consistent()) return exec;
  }
  return TimedExecution{&net, {}};
}

namespace {

/// Smallest n such that entering n tokens in lockstep on every input wire
/// delivers a multiple of every balancer's fan-out to it (Lemma 3.1 /
/// Theorem 3.2's LCM extension). Computed by symbolic count propagation.
std::uint64_t min_uniform_wave_multiplier(const Network& net) {
  for (std::uint64_t n = 1; n <= (1ull << 20); ) {
    std::vector<std::uint64_t> wire_count(net.num_wires(), 0);
    for (std::uint32_t i = 0; i < net.fan_in(); ++i) {
      wire_count[net.source_wire(i)] = n;
    }
    std::uint64_t bump = 0;
    for (std::uint32_t ell = 1; ell <= net.num_layers() && bump == 0; ++ell) {
      for (const NodeIndex b : net.layer(ell)) {
        const Balancer& bal = net.balancer(b);
        std::uint64_t sum = 0;
        for (const WireIndex in : bal.in) sum += wire_count[in];
        if (sum % bal.fan_out() != 0) {
          bump = bal.fan_out() / gcd_u64(bal.fan_out(), sum % bal.fan_out());
          break;
        }
        for (const WireIndex out : bal.out) {
          wire_count[out] = sum / bal.fan_out();
        }
      }
    }
    if (bump == 0) return n;
    n *= bump;
  }
  return 0;  // No reasonable multiplier found.
}

}  // namespace

Theorem32Result run_theorem32_transform(const Network& net,
                                        const TimedExecution& base) {
  Theorem32Result result;
  result.base = base;
  SimulationResult base_sim = simulate(base);
  if (!base_sim.ok()) {
    result.error = "base simulation failed: " + base_sim.error;
    return result;
  }
  result.base_report = analyze(base_sim.trace);
  result.base_timing = measure_timing(base);
  if (result.base_report.linearizable()) {
    result.error = "base execution is linearizable; nothing to transform";
    return result;
  }
  if (!result.base_report.sequentially_consistent()) {
    result.error = "base execution is already non-sequentially-consistent";
    return result;
  }

  // Index base records by token id.
  std::vector<const TokenRecord*> rec_of;
  for (const TokenRecord& r : base_sim.trace) {
    if (r.token >= rec_of.size()) rec_of.resize(r.token + 1, nullptr);
    rec_of[r.token] = &r;
  }
  std::vector<std::size_t> plan_of(rec_of.size());
  for (std::size_t i = 0; i < base.plans.size(); ++i) {
    plan_of[base.plans[i].token] = i;
  }

  const std::uint64_t n_per_wire = min_uniform_wave_multiplier(net);
  if (n_per_wire == 0) {
    result.error = "no lockstep wave multiplier found (exotic fan-outs)";
    return result;
  }
  result.inserted_per_wire = n_per_wire;

  // Try each non-linearizable token as T' until the construction goes
  // through (the relabeled process must not end up with overlapping
  // tokens).
  for (const TokenId t_prime_id : result.base_report.non_linearizable) {
    const TokenRecord& t_prime = *rec_of[t_prime_id];
    const std::size_t t_prime_plan = plan_of[t_prime_id];
    // Witness T: the max-value token completing before T' starts
    // (non-linearizability guarantees one with a larger value exists).
    // Following the proof, T will be RELABELED to a fresh process, so no
    // other token of T's original process can conflict.
    const TokenRecord* t_rec = nullptr;
    for (const TokenRecord& r : base_sim.trace) {
      if (r.last_seq < t_prime.first_seq && r.value > t_prime.value &&
          r.process != t_prime.process &&
          (t_rec == nullptr || r.value > t_rec->value)) {
        t_rec = &r;
      }
    }
    if (t_rec == nullptr) continue;

    // Build the transformed execution: base plans plus the lockstep wave
    // riding T''s layer times, ranked just before T'.
    TimedExecution trans;
    trans.net = &net;
    trans.plans = base.plans;
    trans.times = base.times;
    TokenId next_token = 0;
    for (const TokenPlan& p : base.plans) {
      next_token = std::max(next_token, p.token + 1);
    }
    ProcessId next_proc = 3'000'000;
    // Paper's first step: relabel T to a fresh process p_i that takes no
    // other steps; the inserted token will join that process.
    const ProcessId witness_proc = next_proc++;
    for (TokenPlan& p : trans.plans) {
      if (p.token == t_rec->token) p.process = witness_proc;
    }
    const double rank_base = base.plans[t_prime_plan].rank - 0.5;
    const std::span<const double> t_prime_row = base.times_of(t_prime_plan);
    const std::uint64_t wave_total = n_per_wire * net.fan_in();
    std::vector<TokenId> wave_tokens;
    wave_tokens.reserve(wave_total);
    std::uint64_t idx = 0;
    for (std::uint32_t wire = 0; wire < net.fan_in(); ++wire) {
      for (std::uint64_t rep = 0; rep < n_per_wire; ++rep, ++idx) {
        wave_tokens.push_back(next_token);
        const std::span<double> row = trans.add(
            {.token = next_token++,
             .process = next_proc++,
             .source = wire,
             .rank = rank_base + 1e-6 * static_cast<double>(idx) /
                                     static_cast<double>(wave_total)});
        std::ranges::copy(t_prime_row, row.begin());
      }
    }

    SimulationResult trans_sim = simulate(trans);
    if (!trans_sim.ok()) continue;

    // Find the wave token that took T''s old value at T''s counter, and
    // relabel it to T's process.
    TokenId inserted = 0;
    bool found = false;
    for (const TokenRecord& r : trans_sim.trace) {
      if (r.value == t_prime.value && r.sink == t_prime.sink &&
          std::find(wave_tokens.begin(), wave_tokens.end(), r.token) !=
              wave_tokens.end()) {
        inserted = r.token;
        found = true;
        break;
      }
    }
    if (!found) continue;
    for (TokenPlan& p : trans.plans) {
      if (p.token == inserted) p.process = witness_proc;
    }

    SimulationResult final_sim = simulate(trans);
    if (!final_sim.ok()) continue;
    result.transformed = std::move(trans);
    result.transformed_report = analyze(final_sim.trace);
    result.transformed_timing = measure_timing(result.transformed);
    result.witness_T = t_rec->token;
    result.witness_T_prime = t_prime_id;
    result.inserted_token = inserted;
    return result;
  }
  result.error = "no usable witness pair found";
  return result;
}

}  // namespace cn
