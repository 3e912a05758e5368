// Bounded lock-free MPMC queue (Vyukov's array queue): each cell carries
// a sequence number that encodes whether it is free for the enqueuer of
// round r or full for the dequeuer of round r. Producers and consumers
// claim cells with one CAS-free fetch-free compare_exchange on the shared
// cursor each, and the per-cell sequence handshake orders the payload
// write before the matching read (release/acquire on the cell, not on a
// global lock).
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
#include <vector>

#include "util/cacheline.hpp"

namespace cn::service {

template <typename T>
class BoundedQueue {
 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit BoundedQueue(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap *= 2;
    cells_ = std::vector<Cell>(cap);
    mask_ = cap - 1;
    for (std::size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  std::size_t capacity() const noexcept { return cells_.size(); }

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
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      const auto diff = static_cast<std::intptr_t>(seq) -
                        static_cast<std::intptr_t>(pos);
      if (diff == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          cell.item = item;
          cell.seq.store(pos + 1, std::memory_order_release);
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
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      const auto diff = static_cast<std::intptr_t>(seq) -
                        static_cast<std::intptr_t>(pos + 1);
      if (diff == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          out = cell.item;
          cell.seq.store(pos + mask_ + 1, std::memory_order_release);
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
    std::atomic<std::size_t> seq{0};
    T item{};
  };

  std::vector<Cell> cells_;
  std::size_t mask_ = 0;
  alignas(kCacheLineSize) std::atomic<std::size_t> tail_{0};  ///< Producers.
  alignas(kCacheLineSize) std::atomic<std::size_t> head_{0};  ///< Consumer.
};

}  // namespace cn::service
