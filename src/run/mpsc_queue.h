// Bounded lock-free multi-producer queue used as a shard mailbox.
//
// This is the classic Vyukov bounded queue: a power-of-two ring of cells,
// each carrying a sequence number that encodes whether the cell is free for
// the producer lapping it or holds a value for the consumer.  Producers claim
// a slot with one CAS on the tail; the consumer side here is specialized to a
// SINGLE consumer (the owning shard thread), so the head is a plain index
// that only that thread touches and a pop is wait-free.
//
// Guarantees the parallel engine relies on:
//   - per-producer FIFO: two pushes by the same thread are popped in order
//     (matches the in-order delivery the sequential SimNetwork provides for a
//     src->dst pair, which the kernel's path-FIFO invariant I2 assumes);
//   - bounded: TryPush fails instead of allocating, which is what turns a
//     fast producer into backpressure rather than an unbounded queue;
//   - the value is moved only on success, so a failed push leaves the
//     caller's item intact for the retry loop.

#ifndef DEMOS_RUN_MPSC_QUEUE_H_
#define DEMOS_RUN_MPSC_QUEUE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/base/pool.h"

namespace demos {

inline constexpr std::size_t kCacheLineBytes = 64;

template <typename T>
class BoundedMpscQueue {
 public:
  // Capacity is rounded up to a power of two (minimum 2).
  explicit BoundedMpscQueue(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) {
      cap <<= 1;
    }
    mask_ = cap - 1;
    cells_ = SpareArrays<Cell>::Take(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  // No thread may push or pop any more.  The items still queued are dropped
  // and the emptied ring is kept for the next queue (src/base/pool.h).
  ~BoundedMpscQueue() {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    for (std::size_t pos = head_.load(std::memory_order_relaxed); pos != tail; ++pos) {
      cells_[pos & mask_].value = T{};
    }
    SpareArrays<Cell>::Give(std::move(cells_));
  }

  BoundedMpscQueue(const BoundedMpscQueue&) = delete;
  BoundedMpscQueue& operator=(const BoundedMpscQueue&) = delete;

  std::size_t capacity() const { return mask_ + 1; }

  // Any thread.  Returns false when the ring is full; `item` is moved from
  // only on success.
  bool TryPush(T& item) {
    Cell* cell;
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const std::size_t seq = cell->seq.load(std::memory_order_acquire);
      const auto diff = static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos);
      if (diff == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1, std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return false;  // the consumer has not freed this lap's cell yet: full
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
    cell->value = std::move(item);
    cell->seq.store(pos + 1, std::memory_order_release);
    return true;
  }

  // Consumer thread only.
  bool TryPop(T& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    Cell& cell = cells_[head & mask_];
    const std::size_t seq = cell.seq.load(std::memory_order_acquire);
    if (static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(head + 1) < 0) {
      return false;  // next cell not published yet: empty
    }
    out = std::move(cell.value);
    cell.value = T{};  // drop payload refs eagerly, not one lap later
    cell.seq.store(head + mask_ + 1, std::memory_order_release);
    head_.store(head + 1, std::memory_order_relaxed);
    return true;
  }

  // Consumer thread only (the head index is relaxed; only the consumer
  // advances it, so its own loads are exact).
  bool Empty() const {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const Cell& cell = cells_[head & mask_];
    const std::size_t seq = cell.seq.load(std::memory_order_acquire);
    return static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(head + 1) < 0;
  }

  // Any thread: item count from racy snapshots of head and tail.  Exact when
  // the queue is quiescent, off by in-flight pushes/pops otherwise -- good
  // enough for a depth gauge, never for control flow.
  std::size_t ApproxSize() const {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    return tail > head ? tail - head : 0;
  }

 private:
  struct alignas(kCacheLineBytes) Cell {
    std::atomic<std::size_t> seq{0};
    T value{};
  };

  std::vector<Cell> cells_;
  std::size_t mask_ = 0;
  alignas(kCacheLineBytes) std::atomic<std::size_t> tail_{0};  // producers
  // Single consumer writes it; atomic (relaxed) only so the metrics sampler
  // can read a depth estimate from another thread without a data race.
  alignas(kCacheLineBytes) std::atomic<std::size_t> head_{0};
};

}  // namespace demos

#endif  // DEMOS_RUN_MPSC_QUEUE_H_
