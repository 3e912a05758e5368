// Counting-service settings: what a CountingService (service.hpp) and its
// PolicyClients (client.hpp) are configured by. Plain structs in a header
// of their own, so a parameter block such as engine::RunSpec can embed
// them without pulling in the service implementation (threads, queues,
// shard networks).
#pragma once

#include <cstdint>
#include <string>

#include "fault/chaos.hpp"
#include "fault/fault.hpp"

namespace cn {
class Network;
}  // namespace cn

namespace cn::service {

/// Live split/merge resharding (paper Props 5.6-5.10). The base
/// topology must be continuously uniformly splittable AND pass
/// verify_extraction up to max_level — validate() certifies both.
struct ElasticConfig {
  bool enabled = false;
  std::uint32_t initial_level = 0;  ///< 2^level shards at start().
  std::uint32_t min_level = 0;      ///< Controller / resize floor.
  /// Controller / resize ceiling; must be <= operational_max_level of
  /// the base topology (0 with min_level 0 means "level 0 only", which
  /// still exercises the epoch machinery via explicit resize(0)).
  std::uint32_t max_level = 0;
  /// Adaptive controller: the supervisor samples mean queue depth (as a
  /// fraction of capacity) each poll and resizes after `breach_polls`
  /// consecutive samples beyond a threshold — split above
  /// split_queue_frac, merge below merge_queue_frac — with at least
  /// cooldown_ns between transitions.
  bool controller = false;
  double split_queue_frac = 0.5;
  double merge_queue_frac = 0.05;
  std::uint32_t breach_polls = 3;
  std::uint64_t cooldown_ns = 2'000'000;
};

struct ServiceConfig {
  std::uint32_t shards = 2;
  std::uint32_t max_batch = 32;        ///< Worker drain-up-to batch size.
  std::uint32_t queue_capacity = 4096;  ///< Per-shard; full => reject.
  const Network* net = nullptr;        ///< Topology each shard instantiates.
  bool record = false;                 ///< Emit TokenRecords into the sink.
  fault::FaultPlan fault;              ///< Worker stall/abandon plan.
  fault::ChaosPlan chaos;              ///< Timed chaos schedule (worker
                                       ///< events; arrival events are for
                                       ///< load generators).
  std::uint64_t seed = 1;

  // --- self-healing knobs ---------------------------------------------
  /// Run the supervisor (heartbeats, crash respawn). Off = a crashed
  /// worker stays dead and stop() scavenges its queue — the control for
  /// every recovery experiment.
  bool supervise = true;
  /// Supervisor poll period.
  std::uint64_t supervisor_poll_ns = 50'000;
  /// A worker whose heartbeat has not advanced for this long while its
  /// queue is non-empty counts as wedged (health + wedge_detections).
  std::uint64_t wedge_timeout_ns = 5'000'000;
  /// Admission watermarks as fractions of queue_capacity: shed new
  /// arrivals at >= high, resume below low. high <= 0 disables shedding.
  double shed_high_watermark = 0.0;
  double shed_low_watermark = 0.0;
  /// Pin each shard worker to CPU (shard mod hardware_concurrency).
  /// Off by default: pinning helps steady-state saturation (no worker
  /// migration, warm shard network in one L2) but hurts whenever the
  /// machine is oversubscribed. Linux-only; silently ignored elsewhere.
  bool pin_workers = false;

  // --- elastic width ----------------------------------------------------
  /// When enabled, `shards` is ignored: the service runs 2^level
  /// extracted subnetworks per epoch and resize() / the controller moves
  /// between levels. Shard-targeted chaos (worker crash/stall events) is
  /// rejected by validate() in elastic mode — their at_ops triggers are
  /// per-shard and do not survive epoch boundaries; thread faults
  /// (stall/abandon probabilities) remain available and exercise
  /// per-epoch hole accounting.
  ElasticConfig elastic;
};

/// Empty when the config is runnable, else a human-readable reason.
std::string validate(const ServiceConfig& cfg);

struct SubmitPolicy {
  /// Re-submission attempts after a shed/reject before giving up
  /// (kRejected). 0 = retry until the deadline (or forever without one).
  std::uint32_t max_retries = 16;
  std::uint64_t backoff_base_ns = 2'000;    ///< First backoff.
  std::uint64_t backoff_max_ns = 1'000'000;  ///< Exponential cap.
  /// Fraction of each backoff that is randomized: the sleep is drawn
  /// uniformly from [(1 - jitter) * b, b]. 0 = fully deterministic
  /// spacing (and no rng draw, mirroring FaultStream::flip's p<=0 rule).
  double jitter = 0.5;
  /// Per-request deadline measured from the submit call; 0 = none.
  std::uint64_t deadline_ns = 0;
  /// Completion-wait shape, fully policy-configurable: `spin_limit`
  /// pure spins, then `yield_limit` yield rounds, then timed parks of
  /// `park_ns` each (on the service's completion eventcount when one is
  /// passed, plain sleeps otherwise). The deadline is checked every
  /// round and bounds each park, so the wait NEVER outlives a deadline
  /// on a dead shard.
  std::uint32_t spin_limit = 512;
  std::uint32_t yield_limit = 64;
  std::uint64_t park_ns = 50'000;
};

}  // namespace cn::service
