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

#ifndef DEMOS_SIM_EVENT_QUEUE_H_
#define DEMOS_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <cstdint>
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
  // The callback is moved into a slot once; only its 24-byte key sifts.
  void At(SimTime when, Callback fn) {
    if (when < now_) {
      when = now_;
    }
    std::uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(std::move(fn));
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
      slots_[slot] = std::move(fn);
    }
    heap_.push_back(Key{when, next_seq_++, slot});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  // Schedule `fn` to run `delay` microseconds from now.
  void After(SimDuration delay, Callback fn) { At(now_ + delay, std::move(fn)); }

  bool Empty() const { return heap_.empty(); }
  std::size_t PendingEvents() const { return heap_.size(); }

  // Timestamp of the next event, or kSimTimeNever when nothing is scheduled.
  // This is the shard's "floor" in the parallel engine's LBTS rounds.
  SimTime NextEventTime() const { return heap_.empty() ? kSimTimeNever : heap_.front().when; }

  // Run a single event; returns false if the queue was empty.
  bool Step() {
    if (heap_.empty()) {
      return false;
    }
    // Pop the key, move the callback out of its slot and free the slot, then
    // invoke: the callback may schedule more events, which can reuse the slot
    // or grow (and relocate) the slot vector.
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Key key = heap_.back();
    heap_.pop_back();
    Callback fn = std::move(slots_[key.slot]);
    free_slots_.push_back(key.slot);
    now_ = key.when;
    if (metrics_ != nullptr) {
      metrics_->Inc(CounterId::kEventsExecuted);
    }
    fn();
    return true;
  }

  // Bounded-advance stepping for conservative virtual-time windows: run one
  // event iff its timestamp is <= `bound`.  Unlike RunUntil, the clock never
  // advances past the last executed event, so a later window can still
  // schedule between the current time and the bound.
  bool StepIfAtMost(SimTime bound) {
    if (heap_.empty() || heap_.front().when > bound) {
      return false;
    }
    return Step();
  }

  // Run events until nothing is scheduled.  `max_events` bounds runaway
  // workloads (0 means unbounded); returns the number of events executed.
  std::size_t RunUntilIdle(std::size_t max_events = 0) {
    std::size_t executed = 0;
    while (!heap_.empty()) {
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
    while (!heap_.empty() && heap_.front().when <= deadline) {
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
  // Heap entry: trivially copyable, so a sift step moves 24 bytes and never
  // touches the callback it names.
  struct Key {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;  // index into slots_
  };
  static_assert(std::is_trivially_copyable_v<Key> && sizeof(Key) == 24);

  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;  // FIFO among same-time events
    }
  };

  // Min-heap on (when, seq) maintained with std::push_heap/pop_heap;
  // heap_.front() is always the next event.  Callbacks stay put in slots_
  // (free slots listed in free_slots_) until Step() moves them out.
  std::vector<Key> heap_;
  std::vector<Callback> slots_;
  std::vector<std::uint32_t> free_slots_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  MetricShard* metrics_ = nullptr;
};

}  // namespace demos

#endif  // DEMOS_SIM_EVENT_QUEUE_H_
