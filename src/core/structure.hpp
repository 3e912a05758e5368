// Structural parameters of balancing networks (paper Section 2.5).
// Depth, layers and uniformity are computed by Network itself
// (core/topology.hpp); the influence radius and the reachability check
// read the valencies of core/valency.hpp.
#pragma once

#include <cstdint>

#include "core/topology.hpp"

namespace cn {

/// Shallowness s(G): the length (in balancers) of the shortest path from
/// an input wire to an output wire. s(G) <= d(G), with equality iff G is
/// uniform (given every node is on some source->sink path).
std::uint32_t shallowness(const Network& net);

/// Influence radius irad(G): the maximum, over all pairs of output wires
/// j and k, of the distance (in layers, i.e. balancers traversed) from the
/// least (deepest) common ancestor of j and k to output j. Appears in the
/// necessary condition c_max/c_min <= d(G)/irad(G) + 1 (MPT97, Thm 3.1).
std::uint32_t influence_radius(const Network& net);

/// True iff there is a path from every input wire to every output wire —
/// a property every counting network must have (paper Section 2.5).
bool all_inputs_reach_all_outputs(const Network& net);

}  // namespace cn
