// Dense slots for 32-bit ids that the input chooses.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cn {

/// Numbers the distinct ids it is shown 0, 1, 2, ... in first-seen order,
/// through a flat open-addressing table. State kept per id that a
/// schedule or a record stream chooses (the interpreters' and the
/// streaming checker's per-process state) lives in a vector indexed by
/// the slot, never by the id, so neither memory nor time depends on how
/// large the ids are.
class IdSlots {
 public:
  explicit IdSlots(std::size_t expected = 0) { clear(expected); }

  /// Forgets every id, keeping the allocation. `expected` distinct ids
  /// fit without growing the table.
  void clear(std::size_t expected = 0) {
    table_.assign(std::bit_ceil(std::max<std::size_t>(2 * expected, 16)), 0);
    shift_ = 64 - std::countr_zero(table_.size());
    size_ = 0;
  }

  /// Distinct ids numbered since clear().
  std::size_t size() const noexcept { return size_; }

  /// The slot of `id`; a new id gets the next one (size() - 1 after).
  std::uint32_t slot(std::uint32_t id) {
    std::size_t i = find(id);
    if (table_[i] == 0) {
      if (2 * (size_ + 1) > table_.size()) {
        grow();
        i = find(id);
      }
      table_[i] = (std::uint64_t{id} << 32) | ++size_;
    }
    return static_cast<std::uint32_t>(table_[i]) - 1;
  }

  /// Numbers `id` like slot(); false when it already had a slot.
  bool insert(std::uint32_t id) {
    const std::size_t before = size_;
    slot(id);
    return size_ != before;
  }

 private:
  /// The table index holding `id`, or the empty one where it would go.
  std::size_t find(std::uint32_t id) const noexcept {
    const std::size_t mask = table_.size() - 1;
    // Fibonacci hashing: the top bits of the golden-ratio product.
    std::size_t i = (std::uint64_t{id} * 0x9E3779B97F4A7C15ull) >> shift_;
    while (table_[i] != 0 && (table_[i] >> 32) != id) i = (i + 1) & mask;
    return i;
  }

  /// Doubles the table, re-placing every entry (old_ keeps its buffer
  /// across calls).
  void grow() {
    old_.swap(table_);
    table_.assign(2 * old_.size(), 0);
    shift_ = 64 - std::countr_zero(table_.size());
    for (const std::uint64_t e : old_) {
      if (e != 0) table_[find(static_cast<std::uint32_t>(e >> 32))] = e;
    }
  }

  std::vector<std::uint64_t> table_;  ///< (id << 32) | (slot + 1); 0 empty.
  std::vector<std::uint64_t> old_;    ///< grow()'s previous table.
  int shift_ = 64;
  std::size_t size_ = 0;
};

}  // namespace cn
