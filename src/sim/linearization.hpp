// Explicit serializations and linearizations (paper Section 2.4).
//
// A *serialization* is a total order of tokens respecting each process's
// own order; a *linearization* additionally extends the
// "completely precedes" partial order; an execution is linearizable when
// some linearization lists values in increasing order (HSW96's
// adaptation of Herlihy-Wing).
//
// trace/consistency.hpp decides linearizability via the token-wise
// characterization (no completed-earlier-with-larger-value witness);
// this module produces and checks the actual orders, and provides a
// brute-force existence check so tests can verify the two definitions
// coincide.
#pragma once

#include <optional>
#include <vector>

#include "trace/trace.hpp"

namespace cn {

/// True iff `order` (token ids, each exactly once) is a serialization:
/// tokens of the same process appear in their issue order.
bool is_serialization(const Trace& trace, const std::vector<TokenId>& order);

/// True iff `order` is a linearization witnessing linearizability:
/// a serialization that extends "completely precedes" and lists values
/// in strictly increasing order.
bool is_valid_linearization(const Trace& trace,
                            const std::vector<TokenId>& order);

/// Returns a witnessing linearization if one exists (tokens sorted by
/// value — the canonical witness), std::nullopt otherwise. Agrees with
/// is_linearizable(trace) by construction; the equivalence is verified
/// against brute force in the tests.
std::optional<std::vector<TokenId>> find_linearization(const Trace& trace);

/// Exhaustive check over all permutations — factorial, for tiny traces
/// in property tests only.
bool exists_linearization_bruteforce(const Trace& trace);

}  // namespace cn
