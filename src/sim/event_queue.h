// Discrete-event simulation core.
//
// In the deterministic engine the whole DEMOS/MP cluster runs inside one
// EventQueue: kernels, the network, process scheduling quanta, and workload
// timers are all events on a single virtual clock.  This mirrors how the
// original system ran "in simulation mode on a DEC VAX running UNIX" (Sec. 2)
// and is what makes every migration race deterministic and byte-exact.  In
// the parallel engine (src/run) each shard owns a private EventQueue driven
// only by its worker thread; the class itself is not thread-safe.
//
// Time is in virtual microseconds.  Events scheduled for the same instant run
// in FIFO order of scheduling, which keeps runs reproducible.
//
// The pending set is a monotone radix heap.  Every scheduled time is at least
// Now(), and Now() is at least the time of the last event run, so an event is
// filed in bucket bit_width(when ^ last), where `last` is the time of the last
// event taken from the heap.  Bucket 0 holds the events due at `last`, in
// scheduling order, and runs them front to back.  When it empties, the lowest
// non-empty bucket is split: its earliest time becomes the new `last` and its
// events refile into lower buckets.  Equal-time events always share a bucket
// and a split keeps their relative order, so the structure runs events in
// exact (time, scheduling order) -- the order a (time, sequence number) heap
// gives -- with an append per schedule and no comparison sift.

#ifndef DEMOS_SIM_EVENT_QUEUE_H_
#define DEMOS_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/base/small_fn.h"
#include "src/obs/metrics.h"

namespace demos {

using SimTime = std::uint64_t;      // virtual microseconds since simulation start
using SimDuration = std::uint64_t;  // virtual microseconds

// "No event scheduled": the empty-queue NextEventTime() and the all-queues-
// drained LBTS floor in the parallel engine's conservative time sync.
inline constexpr SimTime kSimTimeNever = ~SimTime{0};

class EventQueue {
 public:
  // Move-only with 56 bytes of inline storage: sized so the hot scheduling
  // closures (kernel timers capturing this+ids, the parallel engine's
  // cross-shard delivery lambdas capturing a PayloadRef window) never heap-
  // allocate per event.  std::function<void()> converts implicitly, so cold
  // call sites that hold one can still schedule it.
  using Callback = SmallFn<56>;

  SimTime Now() const { return now_; }

  // Optional per-shard metrics slab (src/obs/metrics.h); Step() bumps
  // kEventsExecuted on it.  Owned elsewhere; may be null (the default).
  void SetMetrics(MetricShard* metrics) { metrics_ = metrics; }

  // Schedule `fn` to run at absolute virtual time `when` (clamped to Now()).
  // The callable is built straight into a free slot, where Step() later runs
  // and destroys it; the slot itself is what gets filed in the radix heap.
  template <typename F>
  void At(SimTime when, F&& fn) {
    if (when < now_) {
      when = now_;
    }
    std::uint32_t index = free_head_;
    if (index != kNil) {
      free_head_ = links_[index].next;
    } else {
      index = static_cast<std::uint32_t>(links_.size());
      links_.emplace_back();
      if (index % kChunkSlots == 0) {
        chunks_.push_back(std::make_unique<Callback[]>(kChunkSlots));
      }
    }
    if constexpr (std::is_same_v<std::decay_t<F>, Callback>) {
      CallbackAt(index) = std::forward<F>(fn);
    } else {
      CallbackAt(index).Emplace(std::forward<F>(fn));
    }
    links_[index].when = when;
    File(index);
    ++pending_;
  }

  // Schedule `fn` to run `delay` microseconds from now.
  template <typename F>
  void After(SimDuration delay, F&& fn) {
    At(now_ + delay, std::forward<F>(fn));
  }

  bool Empty() const { return pending_ == 0; }
  std::size_t PendingEvents() const { return pending_; }

  // Timestamp of the next event, or kSimTimeNever when nothing is scheduled.
  // This is the shard's "floor" in the parallel engine's LBTS rounds.
  SimTime NextEventTime() const {
    if (pending_ == 0) {
      return kSimTimeNever;
    }
    return buckets_[0].head != kNil ? last_ : buckets_[LowestOccupied()].earliest;
  }

  // Run a single event; returns false if the queue was empty.
  bool Step() {
    if (pending_ == 0) {
      return false;
    }
    if (buckets_[0].head == kNil) {
      Split();
    }
    const std::uint32_t index = buckets_[0].head;
    buckets_[0].head = links_[index].next;
    --pending_;
    now_ = links_[index].when;
    if (metrics_ != nullptr) {
      metrics_->Inc(CounterId::kEventsExecuted);
    }
    // Run the callback where it was built.  Callbacks live in fixed chunks,
    // so events it schedules (even ones that grow the slot table) leave it in
    // place; its slot is freed only after it returns.
    Callback& fn = CallbackAt(index);
    fn();
    fn.Reset();
    links_[index].next = free_head_;
    free_head_ = index;
    return true;
  }

  // Bounded-advance stepping for conservative virtual-time windows: run one
  // event iff its timestamp is <= `bound`.  Unlike RunUntil, the clock never
  // advances past the last executed event, so a later window can still
  // schedule between the current time and the bound.
  bool StepIfAtMost(SimTime bound) {
    if (NextEventTime() > bound) {
      return false;
    }
    return Step();
  }

  // Run events until nothing is scheduled.  `max_events` bounds runaway
  // workloads (0 means unbounded); returns the number of events executed.
  std::size_t RunUntilIdle(std::size_t max_events = 0) {
    std::size_t executed = 0;
    while (pending_ != 0) {
      if (max_events != 0 && executed >= max_events) {
        break;
      }
      Step();
      ++executed;
    }
    return executed;
  }

  // Run events until virtual time reaches `deadline` (events exactly at the
  // deadline still run).  The clock always advances to the deadline.
  std::size_t RunUntil(SimTime deadline, std::size_t max_events = 0) {
    std::size_t executed = 0;
    while (NextEventTime() <= deadline) {
      if (max_events != 0 && executed >= max_events) {
        return executed;
      }
      Step();
      ++executed;
    }
    if (now_ < deadline) {
      now_ = deadline;
    }
    return executed;
  }

  std::size_t RunFor(SimDuration duration, std::size_t max_events = 0) {
    return RunUntil(now_ + duration, max_events);
  }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  // A slot's time and list link, kept apart from its callback so that
  // splitting a bucket walks a compact array.  `next` chains the slot into its
  // bucket's FIFO list while pending and into the free list once run.
  struct Link {
    SimTime when = 0;
    std::uint32_t next = kNil;
  };
  struct List {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    SimTime earliest = kSimTimeNever;  // of the events in the list
  };

  // Bucket i >= 1 holds events whose time first differs from last_ at bit
  // i - 1; bucket 0 holds those due exactly at last_.
  static constexpr int kBuckets = 65;

  void File(std::uint32_t index) {
    Link& link = links_[index];
    const int b = std::bit_width(link.when ^ last_);
    link.next = kNil;
    List& list = buckets_[b];
    if (list.head == kNil) {
      list.head = index;
    } else {
      links_[list.tail].next = index;
    }
    list.tail = index;
    list.earliest = std::min(list.earliest, link.when);
    if (b != 0) {
      occupied_ |= std::uint64_t{1} << (b - 1);
    }
  }

  int LowestOccupied() const { return std::countr_zero(occupied_) + 1; }

  // Bucket 0 is used up: split the lowest occupied bucket around its earliest
  // time.  Everything in it shares last_'s bits above that bucket's bit, so
  // its events refile only into lower buckets, in their current order.
  void Split() {
    const int b = LowestOccupied();
    occupied_ &= occupied_ - 1;
    const std::uint32_t first = buckets_[b].head;
    last_ = buckets_[b].earliest;
    buckets_[b] = List{};
    buckets_[0] = List{};
    for (std::uint32_t i = first; i != kNil;) {
      const std::uint32_t next = links_[i].next;
      File(i);
      i = next;
    }
  }

  // Callbacks live in chunks of kChunkSlots that never move once allocated.
  // The slot table (chunks and links_) grows only when more events are
  // pending than ever before.
  static constexpr std::uint32_t kChunkSlots = 256;
  Callback& CallbackAt(std::uint32_t index) {
    return chunks_[index / kChunkSlots][index % kChunkSlots];
  }

  List buckets_[kBuckets];
  std::uint64_t occupied_ = 0;  // bit i - 1 set iff buckets_[i] is non-empty
  SimTime last_ = 0;            // time of the events in bucket 0
  std::size_t pending_ = 0;
  std::vector<Link> links_;  // indexed by slot
  std::vector<std::unique_ptr<Callback[]>> chunks_;
  std::uint32_t free_head_ = kNil;  // run slots, most recently freed first
  SimTime now_ = 0;
  MetricShard* metrics_ = nullptr;
};

}  // namespace demos

#endif  // DEMOS_SIM_EVENT_QUEUE_H_
