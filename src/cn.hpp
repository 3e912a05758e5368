// Umbrella header for the counting-networks library.
//
// Layering (each layer depends only on those above it):
//   util        — RNG, tables, CLI, spin barrier
//   core        — topology, constructions, sequential semantics, analysis
//   sim         — timed executions, simulator, consistency, adversaries
//   msg         — message-passing substrate (actors + latencies)
//   concurrent  — shared-memory implementation (threads + atomics)
//   baselines   — fetch&inc, MCS, combining tree, diffracting tree
//   engine      — backend registry + parallel sweeper + results pipeline
#pragma once

#include "util/bits.hpp"            // IWYU pragma: export
#include "util/cli.hpp"             // IWYU pragma: export
#include "util/rng.hpp"             // IWYU pragma: export
#include "util/spin_barrier.hpp"    // IWYU pragma: export
#include "util/table.hpp"           // IWYU pragma: export

#include "core/builder.hpp"         // IWYU pragma: export
#include "core/comparison.hpp"      // IWYU pragma: export
#include "core/constructions.hpp"   // IWYU pragma: export
#include "core/render.hpp"          // IWYU pragma: export
#include "core/sequential.hpp"      // IWYU pragma: export
#include "core/structure.hpp"       // IWYU pragma: export
#include "core/topology.hpp"        // IWYU pragma: export
#include "core/valency.hpp"         // IWYU pragma: export
#include "core/verify.hpp"          // IWYU pragma: export

#include "sim/adversary.hpp"        // IWYU pragma: export
#include "sim/linearization.hpp"    // IWYU pragma: export
#include "sim/simulator.hpp"        // IWYU pragma: export
#include "sim/timed_execution.hpp"  // IWYU pragma: export
#include "sim/timing.hpp"           // IWYU pragma: export
#include "sim/workload.hpp"         // IWYU pragma: export

#include "trace/consistency.hpp"    // IWYU pragma: export
#include "trace/trace.hpp"          // IWYU pragma: export

#include "msg/event_kernel.hpp"     // IWYU pragma: export
#include "msg/service.hpp"          // IWYU pragma: export

#include "concurrent/concurrent_network.hpp"  // IWYU pragma: export
#include "concurrent/harness.hpp"             // IWYU pragma: export

#include "baselines/combining_tree.hpp"       // IWYU pragma: export
#include "baselines/diffracting_tree.hpp"     // IWYU pragma: export
#include "baselines/fetch_inc_counter.hpp"    // IWYU pragma: export
#include "baselines/mcs_counter.hpp"          // IWYU pragma: export

#include "engine/engine.hpp"                  // IWYU pragma: export
