// RunSpec: the single parameter block every trace-producing backend in
// the experiment engine consumes. One struct covers the knobs of all
// registered backends (simulator workloads, adversarial waves, the
// message-passing service, the shared-memory harness, and the baseline
// counters); each backend reads the subset it understands and ignores
// the rest, so a sweep driver can be written once against RunSpec.
#pragma once

#include <cstdint>
#include <string>

#include "core/topology.hpp"
#include "fault/fault.hpp"
#include "service/config.hpp"

namespace cn::engine {

struct RunSpec {
  /// Registry key of the backend that should produce the trace
  /// (see backend.hpp; e.g. "simulator", "wave", "msg", "concurrent").
  std::string backend = "simulator";

  /// Topology. When `net` is non-null it is used directly (the caller
  /// keeps it alive); otherwise the engine constructs the network named
  /// by `network`/`width` and owns it for the lifetime of the result.
  const Network* net = nullptr;
  std::string network = "bitonic";  ///< bitonic | periodic | counting_tree
  std::uint32_t width = 8;

  // --- Workload shape (closed-loop backends) -------------------------
  std::uint32_t processes = 8;
  std::uint32_t ops_per_process = 4;

  // --- Timing model (the paper's Section 2.3 parameters) -------------
  double c_min = 1.0;   ///< Minimum wire delay.
  double c_max = 2.0;   ///< Maximum wire delay.
  /// Local inter-operation delay envelope (the C_L knob of Theorem 4.1).
  /// When local_delay_max < 0 it defaults to local_delay_min + 2.
  double local_delay_min = 0.0;
  double local_delay_max = -1.0;
  /// Draw wire delays from the two-point set {c_min, c_max} instead of
  /// the full interval — the adversarially extreme choice.
  bool extreme_delays = true;

  /// Base seed. The sweeper derives per-trial seeds from this
  /// deterministically, independent of thread count.
  std::uint64_t seed = 1;

  // --- "wave" backend (three-wave adversary, Prop 5.3 / Thm 5.11) ----
  std::uint32_t ell = 1;            ///< Split level.
  bool distinct_processes = false;  ///< Corollary 4.5 base variant.
  double wave3_extra_delay = 0.0;   ///< C_L floor imposed before wave 3.
  /// For "wave": 0 means "choose c_max just above the required ratio".
  double wave_c_max = 0.0;

  // --- "sim_burst" backend (LSST Cor 3.7 C_g probe) -------------------
  double burst_gap = 0.0;
  std::uint32_t bursts = 4;
  std::uint32_t burst_size = 8;

  // --- "sim_heterogeneous" backend (Section 2.3 per-process C_L^P) ----
  double hare_delay = 0.0;      ///< Process 0's inter-operation delay.
  double tortoise_delay = 0.0;  ///< Everyone else's.
  double horizon = 400.0;       ///< Simulated-time horizon per process.

  // --- "msg" backend ---------------------------------------------------
  bool slow_process_zero = false;

  // --- "concurrent" + baseline-counter backends (real threads) --------
  // Each runs the harness's closed loop (concurrent/harness.hpp): thread
  // t is process t. All five reject threads == 0, ops_per_thread == 0
  // and an inverted hop envelope, recorded or not. The counters ignore
  // the hop, local-delay and schedule knobs.
  std::uint32_t threads = 4;
  std::uint64_t ops_per_thread = 100;
  std::uint64_t hop_delay_min_ns = 0;
  std::uint64_t hop_delay_max_ns = 0;
  std::uint64_t local_delay_ns = 0;
  bool record_schedule = false;
  /// When false, counter backends skip per-operation trace recording and
  /// only measure throughput (metrics: ops_per_sec) — the recording
  /// clock calls would otherwise dominate the measurement.
  bool record_trace = true;
  /// "concurrent" backend: tokens shepherded per increment_batch call in
  /// unrecorded throughput mode (1 = the classic one-token-per-op loop).
  std::uint32_t batch_size = 1;

  // --- "service" backend (sharded counting service) --------------------
  /// The service's own settings (service/config.hpp): shards, batching,
  /// queues, supervision, watermarks, elastic width, chaos schedule.
  /// The engine owns four of its fields and ignores their values here:
  /// `net`, `fault`, `seed` and `record` come from net/network, fault,
  /// seed and record_trace, like every other backend's. The backend's
  /// clients retry a shed or queue-full refusal until the service takes
  /// it, with no deadline, so a closed-loop run completes every op.
  service::ServiceConfig service;
  /// Requests per client submission: 1 = classic try_submit singles,
  /// >1 = PolicyClient::submit_batch rides the batched ingress (one
  /// ticket-range draw + at most min(batch, shards) queue cells per
  /// call). Accounting is identical either way (Lemma 3.1 splits the
  /// range residue-exactly); throughput is not — that is the point.
  std::uint32_t service_client_batch = 1;

  // --- "optimizer" backend (annealed schedule adversary) --------------
  std::uint32_t opt_iterations = 1500;
  std::uint32_t opt_restarts = 4;

  // --- streaming trace pipeline ---------------------------------------
  /// When false, the engine runs the backend against a streaming
  /// consistency sink instead of materializing the trace:
  /// RunResult::trace stays empty, RunResult::report is computed
  /// incrementally (byte-identical to the batch analyze), and trace
  /// memory is O(open operations) instead of O(tokens). Backends that
  /// stream natively (every built-in one, except replay and msg with
  /// message duplication) never build the trace at all; the rest collect
  /// internally and replay into the sink.
  bool keep_trace = true;
  /// When true, the simulated backends (simulator, sim_burst,
  /// sim_heterogeneous, wave, optimizer) interpret their schedule with
  /// the level-synchronous wave interpreter (simulate_wave and its
  /// faulted and streaming overloads) instead of the scalar event loop.
  /// Byte-identical results — trace, errors, streaming emission, fault
  /// metrics — selected per trial; networks the wave path cannot take
  /// fall back to the scalar interpreter internally.
  bool wave_exec = false;
  /// When non-empty, the produced trace is also written to this file in
  /// the versioned binary format of trace/serialize.hpp (forces the
  /// collecting path — a recorded run always materializes its trace).
  std::string record_path;
  /// "replay" backend only: the trace file to re-analyze.
  std::string replay_path;

  // --- fault injection (all backends) ---------------------------------
  /// Deterministic fault mix for this run; disabled by default, in which
  /// case every backend takes its pristine code path byte-for-byte. Each
  /// backend reads the knobs meaningful for its execution model (see
  /// fault/fault.hpp). The fault stream is derived from (fault.seed,
  /// seed), so the sweeper's per-trial seeds also re-derive the faults.
  fault::FaultPlan fault;
};

}  // namespace cn::engine
