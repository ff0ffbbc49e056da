// Units for the conservative virtual-time sync layer (src/run/virtual_time.h)
// and the pieces of EventQueue / ShardRouter it builds on: bounded stepping,
// floors, the LBTS window rule, the close protocol, and timestamped frame
// draining.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "src/base/bytes.h"
#include "src/run/shard_router.h"
#include "src/run/virtual_time.h"
#include "src/sim/event_queue.h"

namespace demos {
namespace {

// ---------------------------------------------------------------------------
// EventQueue: bounded advance and floors.
// ---------------------------------------------------------------------------

TEST(VirtualTimeQueueTest, NextEventTimeIsFloorOrNever) {
  EventQueue queue;
  EXPECT_EQ(queue.NextEventTime(), kSimTimeNever);
  queue.At(500, [] {});
  queue.At(100, [] {});
  EXPECT_EQ(queue.NextEventTime(), 100u);
  EXPECT_TRUE(queue.Step());
  EXPECT_EQ(queue.NextEventTime(), 500u);
  EXPECT_TRUE(queue.Step());
  EXPECT_EQ(queue.NextEventTime(), kSimTimeNever);
}

TEST(VirtualTimeQueueTest, StepIfAtMostRespectsBoundWithoutAdvancingClock) {
  EventQueue queue;
  int ran = 0;
  queue.At(100, [&ran] { ++ran; });
  queue.At(200, [&ran] { ++ran; });
  queue.At(300, [&ran] { ++ran; });

  EXPECT_TRUE(queue.StepIfAtMost(250));
  EXPECT_TRUE(queue.StepIfAtMost(250));
  EXPECT_FALSE(queue.StepIfAtMost(250)) << "the 300us event is past the bound";
  EXPECT_EQ(ran, 2);
  // Unlike RunUntil, the clock stays at the last *executed* event, so a later
  // window can still schedule between 200 and the old bound.
  EXPECT_EQ(queue.Now(), 200u);
  queue.At(220, [&ran] { ++ran; });
  EXPECT_TRUE(queue.StepIfAtMost(250));
  EXPECT_EQ(ran, 3);
  EXPECT_FALSE(queue.StepIfAtMost(250));
  EXPECT_TRUE(queue.StepIfAtMost(300));
  EXPECT_EQ(ran, 4);
}

TEST(VirtualTimeQueueTest, PastSchedulesClampToNow) {
  EventQueue queue;
  queue.At(1000, [] {});
  EXPECT_TRUE(queue.Step());
  EXPECT_EQ(queue.Now(), 1000u);
  SimTime observed = 0;
  queue.At(50, [&] { observed = queue.Now(); });  // in the past: clamps
  EXPECT_EQ(queue.NextEventTime(), 1000u);
  EXPECT_TRUE(queue.Step());
  EXPECT_EQ(observed, 1000u);
}

// A confirmed round's floors as the closer reads them.
LbtsState::Round RoundOf(std::vector<SimTime> floors, bool tight) {
  LbtsState::Round round;
  round.any_tight = tight;
  round.floors = std::move(floors);
  return round;
}

// ---------------------------------------------------------------------------
// LbtsState: bound derivation and the close protocol.
// ---------------------------------------------------------------------------

TEST(LbtsStateTest, NextBoundIsMinFloorPlusLookaheadMinusOne) {
  LbtsState lbts(3);
  bool widened = true;
  // floors 1000/5000/2000 with a 100us link latency: bound = 1099.
  const SimTime next = lbts.NextWindow(RoundOf({1000, 5000, 2000}, /*tight=*/true), 100, 0,
                                       &widened);
  EXPECT_EQ(next, 1099u);
  EXPECT_FALSE(widened);
  // A tight round spans exactly L, whatever the wide span.
  EXPECT_EQ(lbts.NextWindow(RoundOf({3000, 1200, 5000}, /*tight=*/true), 100, 51'200, &widened),
            1299u);
  EXPECT_FALSE(widened);
}

TEST(LbtsStateTest, NextBoundSkipsDrainedShardsAndDetectsQuiescence) {
  LbtsState lbts(3);
  bool widened = true;
  EXPECT_EQ(lbts.NextWindow(RoundOf({kSimTimeNever, 400, kSimTimeNever}, true), 50, 0, &widened),
            449u);
  EXPECT_EQ(lbts.NextWindow(RoundOf({kSimTimeNever, kSimTimeNever, kSimTimeNever}, true), 50, 0,
                            &widened),
            kSimTimeNever)
      << "every queue drained = cluster quiescent";
  EXPECT_FALSE(widened);
  // The wide span measures from the undrained minimum too.
  EXPECT_EQ(lbts.NextWindow(RoundOf({kSimTimeNever, 400, kSimTimeNever}, false), 50, 800,
                            &widened),
            1199u);
  EXPECT_TRUE(widened);
}

TEST(LbtsStateTest, NextBoundAlwaysAdvancesPastCurrentBound) {
  LbtsState lbts(2);
  bool widened = true;
  ASSERT_NE(lbts.OpenWindow(lbts.bound(), 500), 0u);
  // Degenerate floors at/below the bound still yield strict progress.
  EXPECT_GT(lbts.NextWindow(RoundOf({400, 300}, true), 1, 0, &widened), 500u);
  // The guard holds for a relaxed round as well: a wide span that still
  // lands at/below the bound yields bound + 1, which widened nothing.
  EXPECT_EQ(lbts.NextWindow(RoundOf({400, 300}, false), 1, 100, &widened), 501u);
  EXPECT_FALSE(widened);
  EXPECT_EQ(lbts.NextWindow(RoundOf({400, 300}, false), 1, 800, &widened), 1099u);
  EXPECT_TRUE(widened);
}

TEST(LbtsStateTest, WindowSequenceNeverRegresses) {
  LbtsState lbts(2);
  SimTime bound = lbts.bound();
  std::vector<SimTime> floors = {100, 130};
  bool widened = false;
  for (int round = 0; round < 20; ++round) {
    const SimTime next = lbts.NextWindow(RoundOf(floors, true), 10, 0, &widened);
    ASSERT_NE(next, kSimTimeNever);
    ASSERT_GT(next, bound) << "LBTS bound regressed at round " << round;
    ASSERT_NE(lbts.OpenWindow(bound, next), 0u);
    bound = next;
    floors[0] = next + 1 + static_cast<SimTime>(round % 3);
    floors[1] = next + 5;
  }
  EXPECT_EQ(lbts.epoch(), 20u);
}

TEST(LbtsStateTest, CloseFeedsPublishedFloorsIntoTheBound) {
  LbtsState lbts(2);
  ASSERT_NE(lbts.OpenWindow(lbts.bound(), 2000), 0u);
  EXPECT_EQ(lbts.Block(0, 2100, /*tight=*/false), 0u) << "shard 1 still runs: nobody closes";
  const std::uint64_t word = lbts.Block(1, kSimTimeNever, /*tight=*/false);
  ASSERT_NE(word, 0u) << "the last shard to block closes";

  const LbtsState::Round round = lbts.Read(word);
  EXPECT_EQ(round.bound, 2000u);
  EXPECT_FALSE(round.any_tight);
  EXPECT_EQ(round.floors, (std::vector<SimTime>{2100, kSimTimeNever}));
  EXPECT_FALSE(round.Drained());
  ASSERT_TRUE(lbts.Confirm(round));
  bool widened = true;
  const SimTime next = lbts.NextWindow(round, 100, 0, &widened);
  EXPECT_EQ(next, 2199u) << "min floor + lookahead - 1 over the undrained shards";
  EXPECT_FALSE(widened);
  EXPECT_EQ(lbts.OpenWindow(round.bound, next), 2u);
  EXPECT_EQ(lbts.bound(), 2199u);

  // Shard 0 has a runnable event now; it wakes, runs, and re-blocks with a
  // drained queue.  Its block is again the last, and the close sees the new
  // floor: every queue drained, the cluster is quiescent.
  lbts.Wake();
  const std::uint64_t again = lbts.Block(0, kSimTimeNever, /*tight=*/false);
  ASSERT_NE(again, 0u);
  const LbtsState::Round drained = lbts.Read(again);
  EXPECT_TRUE(lbts.Confirm(drained));
  EXPECT_TRUE(drained.Drained());
}

TEST(LbtsStateTest, TightFlagForcesTheConservativeBound) {
  LbtsState lbts(2);
  lbts.Block(0, 1000, /*tight=*/false);
  const LbtsState::Round relaxed = lbts.Read(lbts.Block(1, 2000, /*tight=*/false));
  EXPECT_FALSE(relaxed.any_tight);
  bool widened = false;
  EXPECT_EQ(lbts.NextWindow(relaxed, 100, 800, &widened), 1799u);
  EXPECT_TRUE(widened);

  // A migration offer leaves shard 1: it wakes and re-blocks tight.
  lbts.Wake();
  const LbtsState::Round tight = lbts.Read(lbts.Block(1, 2000, /*tight=*/true));
  EXPECT_TRUE(tight.any_tight);
  ASSERT_TRUE(lbts.Confirm(tight));
  EXPECT_EQ(lbts.NextWindow(tight, 100, 800, &widened), 1099u)
      << "the wide span is off while any shard is tight";
  EXPECT_FALSE(widened);
}

TEST(LbtsStateTest, WakeOrRepublishBetweenTheClosersReadsVoidsTheClose) {
  LbtsState lbts(2);
  lbts.Block(0, 100, /*tight=*/false);
  const std::uint64_t word = lbts.Block(1, 200, /*tight=*/false);
  ASSERT_NE(word, 0u);
  const LbtsState::Round round = lbts.Read(word);
  ASSERT_TRUE(lbts.Confirm(round));

  // A shard wakes (mail arrived) between the closer's two reads.
  lbts.Wake();
  EXPECT_FALSE(lbts.Confirm(round)) << "a woken shard may have consumed input";

  // It re-publishes the very same floor: count and floors match again, but
  // the wake generation moved, so the old round stays void.
  const std::uint64_t rejoined = lbts.Block(1, 200, /*tight=*/false);
  ASSERT_NE(rejoined, 0u) << "the re-blocking shard is the new closer";
  EXPECT_NE(rejoined, word);
  EXPECT_FALSE(lbts.Confirm(round));
  EXPECT_TRUE(lbts.Confirm(lbts.Read(rejoined)));

  // A re-publish with a moved floor voids the same way.
  lbts.Wake();
  const std::uint64_t moved = lbts.Block(1, 300, /*tight=*/false);
  EXPECT_FALSE(lbts.Confirm(lbts.Read(rejoined)));
  EXPECT_EQ(lbts.Read(moved).floors[1], 300u);

  // A floor inside the window is a runnable event: its shard will wake, so
  // the close is void even with the word unchanged.
  ASSERT_NE(lbts.OpenWindow(lbts.bound(), 150), 0u);
  EXPECT_FALSE(lbts.Confirm(lbts.Read(moved)));
}

TEST(LbtsStateTest, TwoClosersOfOneWindowCannotBothOpenTheNext) {
  LbtsState lbts(2);
  lbts.Block(0, 1000, /*tight=*/false);
  const LbtsState::Round first = lbts.Read(lbts.Block(1, 2000, /*tight=*/false));
  // Shard 1 wakes and re-blocks before the first closer acts: a second
  // closer reads the same window.
  lbts.Wake();
  const LbtsState::Round second = lbts.Read(lbts.Block(1, 2000, /*tight=*/false));
  ASSERT_EQ(first.bound, second.bound);
  ASSERT_TRUE(lbts.Confirm(second));

  bool widened = false;
  const SimTime next = lbts.NextWindow(second, 100, 0, &widened);
  EXPECT_EQ(lbts.OpenWindow(second.bound, next), 1u);
  EXPECT_EQ(lbts.OpenWindow(first.bound, lbts.NextWindow(first, 100, 0, &widened)), 0u)
      << "the window was already opened";
  EXPECT_EQ(lbts.epoch(), 1u);
  EXPECT_EQ(lbts.bound(), next);
}

TEST(LbtsStateTest, EverWideLatchesOnFirstWideWindow) {
  LbtsState lbts(2);
  EXPECT_FALSE(lbts.ever_wide());
  lbts.OpenWindow(lbts.bound(), 1000);
  EXPECT_FALSE(lbts.ever_wide()) << "a strictly conservative window must not latch";
  lbts.OpenWindow(lbts.bound(), 2000, /*wide=*/true);
  EXPECT_TRUE(lbts.ever_wide());
  lbts.OpenWindow(lbts.bound(), 3000);
  EXPECT_TRUE(lbts.ever_wide()) << "the latch is sticky for the rest of the run";
}

// ---------------------------------------------------------------------------
// The window rule: bound = min_floor + span - 1, span = L or the wide span.
// ---------------------------------------------------------------------------

TEST(LbtsStateTest, RelaxedBoundNeverBelowTightAndReportsWidening) {
  LbtsState lbts(2);
  const std::vector<SimTime> floors = {1000, 2000};
  bool widened = true;
  ASSERT_EQ(lbts.NextWindow(RoundOf(floors, /*tight=*/true), 100, 800, &widened), 1099u);

  // No wide span: identical to the conservative bound.
  EXPECT_EQ(lbts.NextWindow(RoundOf(floors, /*tight=*/false), 100, 0, &widened), 1099u);
  EXPECT_FALSE(widened);
  // A wide span measures from the minimum floor.
  EXPECT_EQ(lbts.NextWindow(RoundOf(floors, /*tight=*/false), 100, 800, &widened), 1799u);
  EXPECT_TRUE(widened);
  // A wide span no larger than L never widens.
  EXPECT_EQ(lbts.NextWindow(RoundOf(floors, /*tight=*/false), 100, 100, &widened), 1099u);
  EXPECT_FALSE(widened);
}

TEST(LbtsStateTest, RelaxedBoundPreservesQuiescenceSignal) {
  LbtsState lbts(2);
  bool widened = true;
  EXPECT_EQ(lbts.NextWindow(RoundOf({kSimTimeNever, kSimTimeNever}, /*tight=*/false), 100,
                            1'000'000, &widened),
            kSimTimeNever)
      << "a wide span must not turn a quiescent cluster into a live one";
  EXPECT_FALSE(widened);
}

// ---------------------------------------------------------------------------
// ShardRouter: send timestamps and the timed drain.
// ---------------------------------------------------------------------------

TEST(ShardRouterTimedTest, FramesCarrySenderClockAndDrainTimedHandsThemOver) {
  ShardRouter router(2);
  EventQueue clock0;
  router.SetClock(0, &clock0);
  router.Attach(1, [](MachineId, PayloadRef) { FAIL() << "timed drain must not deliver"; });

  clock0.At(700, [] {});
  ASSERT_TRUE(clock0.Step());  // sender's clock now reads 700

  ByteWriter w;
  w.U32(42);
  router.Send(0, 1, w.Take());

  std::vector<std::pair<MachineId, SimTime>> seen;
  const std::size_t drained =
      router.DrainTimed(1, 16, [&](MachineId src, SimTime send_ts, PayloadRef payload) {
        ByteReader r(payload);
        EXPECT_EQ(r.U32(), 42u);
        seen.emplace_back(src, send_ts);
      });
  EXPECT_EQ(drained, 1u);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].first, 0);
  EXPECT_EQ(seen[0].second, 700u);
  EXPECT_EQ(router.sent(), router.consumed()) << "sink return = frame consumed";
}

TEST(ShardRouterTimedTest, BatchedFramesKeepExactSendTimesAndNeverAdmitThePast) {
  // Safety property behind batching + conservative sync: a batch is published
  // with the EARLIEST staged send_ts as its MailItem timestamp (the value LBTS
  // floor accounting sees), while every frame inside keeps its own exact
  // clock reading.  Earliest-first means the conservative bound derived from
  // the batch head is <= every frame it admits, so no frame can be scheduled
  // into the receiver's past.
  ShardRouterConfig config;
  config.max_batch_frames = 8;
  ShardRouter router(2, config);
  router.SetBatchingEnabled(true);
  EventQueue clock0;
  router.SetClock(0, &clock0);

  clock0.At(700, [] {});
  ASSERT_TRUE(clock0.Step());  // sender's clock reads 700
  router.Send(0, 1, Bytes{1});
  clock0.At(900, [] {});
  ASSERT_TRUE(clock0.Step());  // ...then 900, same drain round, same lane
  router.Send(0, 1, Bytes{2});

  EXPECT_EQ(router.StagedFrames(0), 2u) << "both frames staged in one lane";
  router.Flush(0);  // one publish for the whole lane
  EXPECT_EQ(router.StagedFrames(0), 0u);

  std::vector<SimTime> stamps;
  EXPECT_EQ(router.DrainTimed(1, 16,
                              [&](MachineId src, SimTime send_ts, PayloadRef) {
                                EXPECT_EQ(src, 0);
                                stamps.push_back(send_ts);
                              }),
            2u);
  ASSERT_EQ(stamps.size(), 2u);
  EXPECT_EQ(stamps[0], 700u) << "frame keeps its own send time, not the batch's";
  EXPECT_EQ(stamps[1], 900u);
  // FIFO staging makes the batch head the earliest frame: every frame's exact
  // timestamp is >= the conservative value the batch was admitted under.
  EXPECT_LE(stamps[0], stamps[1]);
  EXPECT_EQ(router.sent(), router.consumed());
}

TEST(ShardRouterTimedTest, UnregisteredSenderStampsZeroAndDeliverRunsHandler) {
  ShardRouter router(2);
  int delivered = 0;
  router.Attach(1, [&](MachineId src, PayloadRef) {
    EXPECT_EQ(src, 0);
    ++delivered;
  });
  router.Send(0, 1, Bytes{1});  // no clock registered: staging-time send
  SimTime stamped = 99;
  EXPECT_EQ(router.DrainTimed(1, 16,
                              [&](MachineId src, SimTime send_ts, PayloadRef payload) {
                                stamped = send_ts;
                                router.Deliver(1, src, std::move(payload));
                              }),
            1u);
  EXPECT_EQ(stamped, 0u);
  EXPECT_EQ(delivered, 1);
}

}  // namespace
}  // namespace demos
