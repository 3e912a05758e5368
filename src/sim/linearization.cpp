#include "sim/linearization.hpp"

#include <algorithm>
#include <map>

#include "trace/consistency.hpp"

namespace cn {

namespace {

/// Token-id -> record map; empty optional when order references unknown
/// or duplicate tokens.
std::optional<std::vector<const TokenRecord*>> resolve(
    const Trace& trace, const std::vector<TokenId>& order) {
  if (order.size() != trace.size()) return std::nullopt;
  std::map<TokenId, const TokenRecord*> by_id;
  for (const TokenRecord& r : trace) by_id[r.token] = &r;
  std::vector<const TokenRecord*> out;
  out.reserve(order.size());
  std::map<TokenId, bool> used;
  for (const TokenId t : order) {
    const auto it = by_id.find(t);
    if (it == by_id.end() || used[t]) return std::nullopt;
    used[t] = true;
    out.push_back(it->second);
  }
  return out;
}

}  // namespace

bool is_serialization(const Trace& trace, const std::vector<TokenId>& order) {
  const auto resolved = resolve(trace, order);
  if (!resolved) return false;
  // Per process, positions must follow issue order (first_seq order).
  std::map<ProcessId, std::uint64_t> last_first_seq;
  for (const TokenRecord* r : *resolved) {
    const auto it = last_first_seq.find(r->process);
    if (it != last_first_seq.end() && r->first_seq < it->second) return false;
    last_first_seq[r->process] = r->first_seq;
  }
  return true;
}

bool is_valid_linearization(const Trace& trace,
                            const std::vector<TokenId>& order) {
  const auto resolved = resolve(trace, order);
  if (!resolved) return false;
  if (!is_serialization(trace, order)) return false;
  // Extends "completely precedes": no token may appear after one whose
  // first step follows its last step... i.e. for positions i < j, it must
  // NOT be that order[j] completely precedes order[i]. Equivalent check:
  // the max last_seq of a later token being smaller than an earlier
  // token's first step signals an inversion of the partial order.
  for (std::size_t i = 0; i < resolved->size(); ++i) {
    for (std::size_t j = i + 1; j < resolved->size(); ++j) {
      if ((*resolved)[j]->last_seq < (*resolved)[i]->first_seq) return false;
    }
  }
  // Values strictly increasing along the order.
  for (std::size_t i = 1; i < resolved->size(); ++i) {
    if ((*resolved)[i]->value <= (*resolved)[i - 1]->value) return false;
  }
  return true;
}

std::optional<std::vector<TokenId>> find_linearization(const Trace& trace) {
  if (!is_linearizable(trace)) return std::nullopt;
  // Counter values are globally unique, so sorting by value yields a
  // total order; the absence of inversion witnesses makes it extend the
  // precedence order, and increasing values along a precedence-compatible
  // order automatically respect per-process order too.
  std::vector<const TokenRecord*> sorted;
  sorted.reserve(trace.size());
  for (const TokenRecord& r : trace) sorted.push_back(&r);
  std::sort(sorted.begin(), sorted.end(),
            [](const TokenRecord* a, const TokenRecord* b) {
              return a->value < b->value;
            });
  std::vector<TokenId> order;
  order.reserve(sorted.size());
  for (const TokenRecord* r : sorted) order.push_back(r->token);
  return order;
}

bool exists_linearization_bruteforce(const Trace& trace) {
  std::vector<TokenId> order;
  order.reserve(trace.size());
  for (const TokenRecord& r : trace) order.push_back(r.token);
  std::sort(order.begin(), order.end());
  do {
    if (is_valid_linearization(trace, order)) return true;
  } while (std::next_permutation(order.begin(), order.end()));
  return trace.empty();
}

}  // namespace cn
