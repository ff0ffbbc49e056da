// Unit tests for the discrete-event engine.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/base/small_fn.h"
#include "src/sim/event_queue.h"

namespace demos {
namespace {

TEST(EventQueueTest, StartsAtZero) {
  EventQueue q;
  EXPECT_EQ(q.Now(), 0u);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, RunsEventsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.At(30, [&] { order.push_back(3); });
  q.At(10, [&] { order.push_back(1); });
  q.At(20, [&] { order.push_back(2); });
  q.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.Now(), 30u);
}

TEST(EventQueueTest, SameTimeIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.At(5, [&order, i] { order.push_back(i); });
  }
  q.RunUntilIdle();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

TEST(EventQueueTest, AfterIsRelative) {
  EventQueue q;
  SimTime fired_at = 0;
  q.At(100, [&] {
    q.After(50, [&] { fired_at = q.Now(); });
  });
  q.RunUntilIdle();
  EXPECT_EQ(fired_at, 150u);
}

TEST(EventQueueTest, PastTimesClampToNow) {
  EventQueue q;
  bool ran = false;
  q.At(100, [&] {
    q.At(10, [&] { ran = true; });  // in the past; runs at now
  });
  q.RunUntilIdle();
  EXPECT_TRUE(ran);
  EXPECT_EQ(q.Now(), 100u);
}

TEST(EventQueueTest, RunUntilStopsAtDeadline) {
  EventQueue q;
  int count = 0;
  q.At(10, [&] { ++count; });
  q.At(20, [&] { ++count; });
  q.At(30, [&] { ++count; });
  q.RunUntil(20);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(q.Now(), 20u);
  q.RunUntilIdle();
  EXPECT_EQ(count, 3);
}

TEST(EventQueueTest, RunUntilAdvancesClockWhenIdle) {
  EventQueue q;
  q.RunUntil(500);
  EXPECT_EQ(q.Now(), 500u);
}

TEST(EventQueueTest, RunForIsRelative) {
  EventQueue q;
  q.RunFor(100);
  q.RunFor(100);
  EXPECT_EQ(q.Now(), 200u);
}

TEST(EventQueueTest, MaxEventsBoundsRunaway) {
  EventQueue q;
  std::size_t fired = 0;
  std::function<void()> loop = [&] {
    ++fired;
    q.After(1, loop);
  };
  q.After(1, loop);
  const std::size_t executed = q.RunUntilIdle(1000);
  EXPECT_EQ(executed, 1000u);
  EXPECT_EQ(fired, 1000u);
  EXPECT_FALSE(q.Empty());
}

TEST(EventQueueTest, StepReturnsFalseWhenEmpty) {
  EventQueue q;
  EXPECT_FALSE(q.Step());
  q.At(1, [] {});
  EXPECT_TRUE(q.Step());
  EXPECT_FALSE(q.Step());
}

TEST(EventQueueTest, EventsScheduledDuringRunExecute) {
  EventQueue q;
  int depth = 0;
  q.At(1, [&] {
    q.At(2, [&] {
      q.At(3, [&] { depth = 3; });
    });
  });
  q.RunUntilIdle();
  EXPECT_EQ(depth, 3);
}

namespace {
struct CopyProbe {
  CopyProbe() = default;
  CopyProbe(const CopyProbe& other) : copies(other.copies) { ++*copies; }
  CopyProbe& operator=(const CopyProbe& other) {
    copies = other.copies;
    ++*copies;
    return *this;
  }
  CopyProbe(CopyProbe&&) = default;
  CopyProbe& operator=(CopyProbe&&) = default;
  int* copies = nullptr;
};
}  // namespace

// Dispatch must move the callback out of the heap, never copy it: a copy per
// event would re-copy every captured payload on the hot path.
TEST(SmallFnTest, InlineCapturesAvoidTheHeapAndMoveCleanly) {
  // The event queue's Callback is SmallFn<56>: captures up to 56 bytes live
  // inline in the event node.  Prove the inline path runs, moves, and
  // destroys exactly one live copy of its capture.
  struct LifeProbe {
    int* alive;
    explicit LifeProbe(int* a) : alive(a) { ++*alive; }
    LifeProbe(LifeProbe&& o) noexcept : alive(o.alive) { ++*alive; }
    LifeProbe(const LifeProbe&) = delete;
    ~LifeProbe() { --*alive; }
  };
  static_assert(sizeof(LifeProbe) <= 56, "must take the inline path");

  int alive = 0;
  int runs = 0;
  {
    SmallFn<56> fn([probe = LifeProbe(&alive), &runs] { ++runs; });
    EXPECT_EQ(alive, 1) << "exactly the inline copy lives";
    SmallFn<56> moved = std::move(fn);
    EXPECT_EQ(alive, 1) << "move transfers, never duplicates";
    EXPECT_FALSE(static_cast<bool>(fn)) << "moved-from fn is empty";
    moved();
    moved();
    EXPECT_EQ(runs, 2);
  }
  EXPECT_EQ(alive, 0) << "capture destroyed with the SmallFn";
}

TEST(SmallFnTest, OversizedCapturesFallBackToTheHeapTransparently) {
  struct Big {
    unsigned char padding[128];  // > 56 bytes: forced onto the heap path
    int* runs;
  };
  int runs = 0;
  Big big{};
  big.runs = &runs;
  SmallFn<56> fn([big] { ++*big.runs; });
  SmallFn<56> moved = std::move(fn);
  moved();
  EXPECT_EQ(runs, 1);

  // Move-assignment over a live callable destroys the old one first.
  moved = SmallFn<56>([&runs] { runs += 10; });
  moved();
  EXPECT_EQ(runs, 11);
}

TEST(EventQueueTest, MoveOnlyCapturesSchedule) {
  // std::function rejected move-only captures outright; the point of SmallFn
  // as EventQueue::Callback is that an event can own its payload.
  EventQueue q;
  auto payload = std::make_unique<int>(41);
  int seen = 0;
  q.At(5, [owned = std::move(payload), &seen] { seen = *owned + 1; });
  q.RunUntilIdle();
  EXPECT_EQ(seen, 42);
}

TEST(EventQueueTest, StepMovesCallbacksWithoutCopying) {
  EventQueue q;
  int copies = 0;
  int runs = 0;
  for (int i = 0; i < 16; ++i) {
    CopyProbe probe;
    probe.copies = &copies;
    q.At(static_cast<SimTime>(i), [probe, &runs] { ++runs; });
  }
  const int after_scheduling = copies;
  q.RunUntilIdle();
  EXPECT_EQ(runs, 16);
  EXPECT_EQ(copies, after_scheduling) << "Step() copied a callback";
}

// Callbacks live in recycled slots; the order must still come from (time,
// scheduling order) alone.  Reused slots are handed out in LIFO order, so a slot index says
// nothing about scheduling order.
TEST(EventQueueTest, SameTimeFifoSurvivesSlotReuse) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    q.At(1, [&order, i] { order.push_back(i); });
  }
  q.RunUntilIdle();  // frees all eight slots
  order.clear();
  for (int i = 0; i < 8; ++i) {
    q.At(10, [&order, i] { order.push_back(i); });
    q.At(5, [&order, i] { order.push_back(100 + i); });
  }
  q.RunUntilIdle();
  std::vector<int> want;
  for (int i = 0; i < 8; ++i) {
    want.push_back(100 + i);
  }
  for (int i = 0; i < 8; ++i) {
    want.push_back(i);
  }
  EXPECT_EQ(order, want);
}

// A running callback schedules enough events to force the slot table to grow
// underneath it; it must keep running in its slot, which never moves.
TEST(EventQueueTest, CallbackMayGrowTheSlotVectorWhileRunning) {
  EventQueue q;
  std::vector<int> order;
  auto owned = std::make_unique<int>(7);
  int seen = 0;
  q.At(1, [&q, &order, &seen, owned = std::move(owned)] {
    for (int i = 0; i < 1000; ++i) {
      q.At(2, [&order, i] { order.push_back(i); });
    }
    seen = *owned;  // captures still alive after the growth
  });
  q.RunUntilIdle();
  EXPECT_EQ(seen, 7);
  ASSERT_EQ(order.size(), 1000u);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  }
}

// Pending callbacks are destroyed exactly once with the queue, inline and
// heap-fallback (oversized) captures alike; ASan flags a leak or a double
// free.
TEST(EventQueueTest, DestroysPendingCallbacksExactlyOnce) {
  struct Probe {
    int* live;
    explicit Probe(int* l) : live(l) { ++*live; }
    Probe(Probe&& o) noexcept : live(o.live) { ++*live; }
    Probe(const Probe&) = delete;
    ~Probe() { --*live; }
  };
  struct Oversized {
    Probe probe;
    unsigned char padding[128];
  };
  int live = 0;
  int runs = 0;
  {
    EventQueue q;
    for (int i = 0; i < 6; ++i) {
      q.At(static_cast<SimTime>(i), [p = Probe(&live), &runs] { ++runs; });
      q.At(static_cast<SimTime>(i), [big = Oversized{Probe(&live), {}}, &runs] { ++runs; });
    }
    EXPECT_EQ(live, 12);
    q.RunUntil(2);  // runs (and destroys) the six events at t <= 2
    EXPECT_EQ(runs, 6);
    EXPECT_EQ(live, 6);
    q.At(9, [p = Probe(&live)] {});  // reuses a freed slot
    EXPECT_EQ(live, 7);
  }
  EXPECT_EQ(live, 0);
}

// The radix heap must run events in exact (time, scheduling order).  Random
// schedules -- events that schedule more events, the same instant included,
// with bounded stepping, RunUntil and NextEventTime probes in between -- are
// checked against a reference set ordered by (time, scheduling sequence):
// every event run must be that set's minimum.
TEST(EventQueueTest, RunsExactTimeThenSchedulingOrderOnRandomSchedules) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    EventQueue q;
    std::set<std::pair<SimTime, std::uint64_t>> pending;  // (time, sequence)
    std::uint64_t next_seq = 0;
    std::uint64_t ran = 0;
    bool in_order = true;
    struct Scheduler {
      EventQueue& q;
      Rng& rng;
      std::set<std::pair<SimTime, std::uint64_t>>& pending;
      std::uint64_t& next_seq;
      std::uint64_t& ran;
      bool& in_order;
      void Schedule(int depth) {
        // Mostly near-future times, some at Now() and some far ahead.
        const std::uint64_t pick = rng.Below(8);
        const SimTime delay = pick == 0 ? 0 : pick < 6 ? rng.Below(64) : rng.Below(100'000);
        const SimTime when = q.Now() + delay;
        const std::uint64_t seq = next_seq++;
        pending.emplace(when, seq);
        q.At(when, [this, when, seq, depth] {
          in_order = in_order && !pending.empty() &&
                     *pending.begin() == std::make_pair(when, seq) && q.Now() == when;
          pending.erase(pending.begin());
          ++ran;
          for (std::uint64_t i = depth < 6 ? rng.Below(3) : 0; i > 0; --i) {
            Schedule(depth + 1);
          }
        });
      }
    } scheduler{q, rng, pending, next_seq, ran, in_order};
    for (int i = 0; i < 200; ++i) {
      scheduler.Schedule(0);
    }
    while (!q.Empty()) {
      ASSERT_EQ(q.NextEventTime(), pending.begin()->first) << "seed " << seed;
      switch (rng.Below(3)) {
        case 0:
          q.Step();
          break;
        case 1:
          q.StepIfAtMost(q.Now() + rng.Below(128));
          break;
        default:
          q.RunUntil(q.Now() + rng.Below(256));
          if (rng.Below(4) == 0) {
            scheduler.Schedule(0);  // after RunUntil moved the clock past the last event
          }
      }
      ASSERT_TRUE(in_order) << "seed " << seed << " after " << ran << " events";
    }
    EXPECT_TRUE(pending.empty());
    EXPECT_EQ(q.NextEventTime(), kSimTimeNever);
  }
}

}  // namespace
}  // namespace demos
