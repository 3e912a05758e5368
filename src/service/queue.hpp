// Bounded lock-free MPMC queue (Vyukov's array queue): each cell carries
// a sequence number that encodes whether it is free for the enqueuer of
// round r or full for the dequeuer of round r. Producers and consumers
// claim cells with one CAS-free fetch-free compare_exchange on the shared
// cursor each, and the per-cell sequence handshake orders the payload
// write before the matching read (release/acquire on the cell, not on a
// global lock).
//
// A cell stores its sequence RELATIVE to its own index i: stored =
// seq - i. Vyukov's initial seq[i] = i then reads 0, so a zeroed ring is
// an empty queue. The ring comes from calloc and construction writes
// nothing: its pages fault in (already zero) as the cursors first reach
// them, instead of all at once when the queue is built. The stored value
// of a cell whose position is pos is pos's lap base (pos - i) when free
// and that base + 1 when full; a pop hands the cell to the next lap by
// storing base + capacity.
//
// The service uses one queue per shard: clients of any thread push
// (multi-producer) and that shard's single worker pops (the
// multi-consumer side is unused but free). try_push fails when the queue
// is full — that is the service's overload signal, surfaced as a
// rejected request rather than unbounded queueing.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <type_traits>

#include "util/cacheline.hpp"

namespace cn::service {

template <typename T>
class BoundedQueue {
  // calloc's zero bytes must already be valid cells: no constructor runs
  // on the ring, and no destructor either.
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "BoundedQueue items live in calloc'd memory");

 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit BoundedQueue(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap *= 2;
    cells_.reset(static_cast<Cell*>(std::calloc(cap, sizeof(Cell))));
    if (!cells_) throw std::bad_alloc();
    mask_ = cap - 1;
  }

  std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Racy occupancy estimate (tail - head as last observed): exact at
  /// quiescence, off by at most the in-flight operation count under
  /// contention. This is the admission-control and health signal — a
  /// watermark check needs a cheap depth, not a linearizable one.
  std::size_t approx_size() const noexcept {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t head = head_.load(std::memory_order_relaxed);
    return tail > head ? tail - head : 0;
  }

  /// Enqueues a copy of `item`; returns false when the queue is full.
  bool try_push(const T& item) {
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t lap = pos & ~mask_;
      const std::size_t seq = seq_of(cell).load(std::memory_order_acquire);
      const auto diff = static_cast<std::intptr_t>(seq) -
                        static_cast<std::intptr_t>(lap);
      if (diff == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          cell.item = item;
          seq_of(cell).store(lap + 1, std::memory_order_release);
          return true;
        }
      } else if (diff < 0) {
        return false;  // Cell still holds last round's item: full.
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Dequeues into `out`; returns false when the queue is empty.
  bool try_pop(T& out) {
    std::size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t lap = pos & ~mask_;
      const std::size_t seq = seq_of(cell).load(std::memory_order_acquire);
      const auto diff = static_cast<std::intptr_t>(seq) -
                        static_cast<std::intptr_t>(lap + 1);
      if (diff == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          out = cell.item;
          seq_of(cell).store(lap + mask_ + 1, std::memory_order_release);
          return true;
        }
      } else if (diff < 0) {
        return false;  // Cell not yet filled this round: empty.
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

 private:
  struct Cell {
    std::size_t seq;  ///< Relative sequence; accessed only via seq_of.
    T item;
  };
  static_assert(alignof(Cell) >=
                std::atomic_ref<std::size_t>::required_alignment);

  static std::atomic_ref<std::size_t> seq_of(Cell& cell) noexcept {
    return std::atomic_ref<std::size_t>(cell.seq);
  }

  struct FreeRing {
    void operator()(Cell* ring) const noexcept { std::free(ring); }
  };

  std::unique_ptr<Cell[], FreeRing> cells_;
  std::size_t mask_ = 0;
  alignas(kCacheLineSize) std::atomic<std::size_t> tail_{0};  ///< Producers.
  alignas(kCacheLineSize) std::atomic<std::size_t> head_{0};  ///< Consumer.
};

}  // namespace cn::service
