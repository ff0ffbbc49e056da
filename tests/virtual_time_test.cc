// Units for the conservative virtual-time sync layer (src/run/virtual_time.h)
// and the pieces of EventQueue / ShardRouter it builds on: bounded stepping,
// floors, link lookahead, the LBTS bound derivation, the busy/floor publish
// protocol, and timestamped frame draining.

#include <gtest/gtest.h>

#include <cstdint>
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

// ---------------------------------------------------------------------------
// LinkLatencyTable: clamping, overrides, lookahead.
// ---------------------------------------------------------------------------

TEST(LinkLatencyTableTest, UniformLatencyAndZeroClamp) {
  LinkLatencyTable table(3, /*uniform_us=*/100);
  EXPECT_EQ(table.Latency(0, 1), 100u);
  EXPECT_EQ(table.Latency(2, 0), 100u);
  EXPECT_EQ(table.LookaheadFrom(1), 100u);

  LinkLatencyTable clamped(2, /*uniform_us=*/0);
  EXPECT_EQ(clamped.Latency(0, 1), 1u) << "zero lookahead would stall LBTS";
  EXPECT_EQ(clamped.LookaheadFrom(0), 1u);
}

TEST(LinkLatencyTableTest, OverridesAreDirectionalAndShrinkLookahead) {
  LinkLatencyTable table(3, /*uniform_us=*/100);
  table.SetLink(0, 1, 10);
  table.SetLink(1, 0, 0);  // clamps to 1
  EXPECT_EQ(table.Latency(0, 1), 10u);
  EXPECT_EQ(table.Latency(1, 0), 1u);
  EXPECT_EQ(table.Latency(1, 2), 100u) << "override is per-link, not per-shard";
  // Lookahead is the min over outgoing links.
  EXPECT_EQ(table.LookaheadFrom(0), 10u);
  EXPECT_EQ(table.LookaheadFrom(1), 1u);
  EXPECT_EQ(table.LookaheadFrom(2), 100u);
}

TEST(LinkLatencyTableTest, CachedLookaheadTracksRaisedAndLoweredLinks) {
  // LookaheadFrom is cached per source (NextBound used to rescan the full
  // latency row per shard per window); SetLink must keep the cache exact in
  // both directions, including raising the link that *was* the minimum.
  LinkLatencyTable table(3, /*uniform_us=*/100);
  table.SetLink(0, 1, 10);
  EXPECT_EQ(table.LookaheadFrom(0), 10u);
  table.SetLink(0, 2, 5);
  EXPECT_EQ(table.LookaheadFrom(0), 5u);
  table.SetLink(0, 2, 500);  // the old minimum goes away
  EXPECT_EQ(table.LookaheadFrom(0), 10u) << "raising a link must rescan, not keep the stale min";
  table.SetLink(0, 1, 700);
  EXPECT_EQ(table.LookaheadFrom(0), 100u) << "all overrides above uniform: uniform wins";
  EXPECT_EQ(table.MinLookahead(), 100u);
  table.SetLink(2, 0, 3);
  EXPECT_EQ(table.MinLookahead(), 3u);
}

// Drive `count` sends on src->dst spaced `gap` apart, starting after whatever
// timestamp the link last saw.
void SendsWithGap(AdaptiveLookahead& adaptive, MachineId src, MachineId dst, SimTime start,
                  SimDuration gap, int count) {
  for (int i = 0; i < count; ++i) {
    adaptive.Observe(src, dst, start + static_cast<SimTime>(i) * gap);
  }
}

// ---------------------------------------------------------------------------
// LbtsState: bound derivation and the close protocol.
// ---------------------------------------------------------------------------

TEST(LbtsStateTest, NextBoundIsMinFloorPlusLookaheadMinusOne) {
  LbtsState lbts(3);
  LinkLatencyTable latency(3, /*uniform_us=*/100);
  // floors 1000/5000/2000 with uniform 100us lookahead: bound = 1099.
  const SimTime next = lbts.NextBound({1000, 5000, 2000}, latency);
  EXPECT_EQ(next, 1099u);
}

TEST(LbtsStateTest, NextBoundSkipsDrainedShardsAndDetectsQuiescence) {
  LbtsState lbts(3);
  LinkLatencyTable latency(3, /*uniform_us=*/50);
  EXPECT_EQ(lbts.NextBound({kSimTimeNever, 400, kSimTimeNever}, latency), 449u);
  EXPECT_EQ(lbts.NextBound({kSimTimeNever, kSimTimeNever, kSimTimeNever}, latency),
            kSimTimeNever)
      << "every queue drained = cluster quiescent";
}

TEST(LbtsStateTest, NextBoundAlwaysAdvancesPastCurrentBound) {
  LbtsState lbts(2);
  LinkLatencyTable latency(2, /*uniform_us=*/1);
  ASSERT_NE(lbts.OpenWindow(lbts.bound(), 500), 0u);
  // Degenerate floors at/below the bound still yield strict progress.
  EXPECT_GT(lbts.NextBound({400, 300}, latency), 500u);
}

TEST(LbtsStateTest, WindowSequenceNeverRegresses) {
  LbtsState lbts(2);
  LinkLatencyTable latency(2, /*uniform_us=*/10);
  SimTime bound = lbts.bound();
  std::vector<SimTime> floors = {100, 130};
  for (int round = 0; round < 20; ++round) {
    const SimTime next = lbts.NextBound(floors, latency);
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
  LinkLatencyTable latency(2, /*uniform_us=*/100);
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
  const SimTime next = lbts.NextWindow(round, latency, nullptr, 0, &widened);
  EXPECT_EQ(next, 2199u) << "min(floor + lookahead) - 1 over the undrained shards";
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
  LinkLatencyTable latency(2, /*uniform_us=*/100);
  AdaptiveLookahead adaptive(latency, /*growth_cap=*/64, /*window=*/4);
  SendsWithGap(adaptive, 0, 1, 0, 1000, 5);
  ASSERT_EQ(adaptive.FromSource(0), 200u);

  lbts.Block(0, 1000, /*tight=*/false);
  const LbtsState::Round relaxed = lbts.Read(lbts.Block(1, 2000, /*tight=*/false));
  EXPECT_FALSE(relaxed.any_tight);
  bool widened = false;
  EXPECT_EQ(lbts.NextWindow(relaxed, latency, &adaptive, 800, &widened), 1799u);
  EXPECT_TRUE(widened);

  // A migration offer leaves shard 1: it wakes and re-blocks tight.
  lbts.Wake();
  const LbtsState::Round tight = lbts.Read(lbts.Block(1, 2000, /*tight=*/true));
  EXPECT_TRUE(tight.any_tight);
  ASSERT_TRUE(lbts.Confirm(tight));
  EXPECT_EQ(lbts.NextWindow(tight, latency, &adaptive, 800, &widened), 1099u)
      << "learned lookahead and the wide span are off while any shard is tight";
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
  LinkLatencyTable latency(2, /*uniform_us=*/100);
  lbts.Block(0, 1000, /*tight=*/false);
  const LbtsState::Round first = lbts.Read(lbts.Block(1, 2000, /*tight=*/false));
  // Shard 1 wakes and re-blocks before the first closer acts: a second
  // closer reads the same window.
  lbts.Wake();
  const LbtsState::Round second = lbts.Read(lbts.Block(1, 2000, /*tight=*/false));
  ASSERT_EQ(first.bound, second.bound);
  ASSERT_TRUE(lbts.Confirm(second));

  bool widened = false;
  const SimTime next = lbts.NextWindow(second, latency, nullptr, 0, &widened);
  EXPECT_EQ(lbts.OpenWindow(second.bound, next), 1u);
  EXPECT_EQ(lbts.OpenWindow(first.bound, lbts.NextWindow(first, latency, nullptr, 0, &widened)),
            0u)
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
// AdaptiveLookahead: learning, shrinking, collapse.
// ---------------------------------------------------------------------------

TEST(AdaptiveLookaheadTest, StartsAtStaticFloorAndFirstSendOnlyRecords) {
  LinkLatencyTable table(2, /*uniform_us=*/100);
  AdaptiveLookahead adaptive(table, /*growth_cap=*/64, /*window=*/4);
  EXPECT_EQ(adaptive.FromSource(0), 100u);
  EXPECT_FALSE(adaptive.Observe(0, 1, 5000)) << "a first send has no gap to learn from";
  EXPECT_EQ(adaptive.FromSource(0), 100u);
}

TEST(AdaptiveLookaheadTest, GrowthIsWindowedAtMostDoublePerWindowAndCapped) {
  LinkLatencyTable table(2, /*uniform_us=*/100);
  AdaptiveLookahead adaptive(table, /*growth_cap=*/4, /*window=*/4);
  // 1 recording send + 4 gaps of 1000us = one full observation window.
  SendsWithGap(adaptive, 0, 1, 0, 1000, 5);
  EXPECT_EQ(adaptive.FromSource(0), 200u) << "one window may at most double the estimate";
  SendsWithGap(adaptive, 0, 1, 10'000, 1000, 4);
  EXPECT_EQ(adaptive.FromSource(0), 400u);
  SendsWithGap(adaptive, 0, 1, 20'000, 1000, 4);
  EXPECT_EQ(adaptive.FromSource(0), 400u) << "growth_cap * static is the ceiling";
}

TEST(AdaptiveLookaheadTest, ShrinkIsImmediateAndNeverBelowStatic) {
  LinkLatencyTable table(2, /*uniform_us=*/100);
  AdaptiveLookahead adaptive(table, /*growth_cap=*/64, /*window=*/4);
  SendsWithGap(adaptive, 0, 1, 0, 1000, 5);
  ASSERT_EQ(adaptive.FromSource(0), 200u);
  // A single closer-spaced send shrinks mid-window -- no waiting.
  EXPECT_TRUE(adaptive.Observe(0, 1, 4150));  // 150us after the last send at 4000
  EXPECT_EQ(adaptive.FromSource(0), 150u);
  EXPECT_TRUE(adaptive.Observe(0, 1, 4160));  // 10us gap clamps at the static floor
  EXPECT_EQ(adaptive.FromSource(0), 100u);
  EXPECT_FALSE(adaptive.Observe(0, 1, 4165)) << "already at the floor: nothing shrank";
  EXPECT_EQ(adaptive.FromSource(0), 100u);
}

TEST(AdaptiveLookaheadTest, CollapseResetsToStaticFloor) {
  LinkLatencyTable table(2, /*uniform_us=*/100);
  AdaptiveLookahead adaptive(table, /*growth_cap=*/64, /*window=*/4);
  SendsWithGap(adaptive, 0, 1, 0, 1000, 5);
  ASSERT_EQ(adaptive.FromSource(0), 200u);
  EXPECT_TRUE(adaptive.Collapse(0)) << "the published value shrank back to static";
  EXPECT_EQ(adaptive.FromSource(0), 100u);
  EXPECT_FALSE(adaptive.Collapse(0)) << "already at the floor";
  // Learning restarts cleanly after the collapse.
  SendsWithGap(adaptive, 0, 1, 50'000, 1000, 4);
  EXPECT_EQ(adaptive.FromSource(0), 200u);
}

TEST(AdaptiveLookaheadTest, PublishedIsMinOverObservedLinks) {
  LinkLatencyTable table(3, /*uniform_us=*/100);
  AdaptiveLookahead adaptive(table, /*growth_cap=*/64, /*window=*/4);
  SendsWithGap(adaptive, 0, 1, 0, 1000, 5);
  ASSERT_EQ(adaptive.FromSource(0), 200u) << "only 0->1 observed so far";
  // A second destination with tight spacing drags the source estimate down:
  // the published value must be safe for the busiest outgoing link.
  adaptive.Observe(0, 2, 9000);
  EXPECT_TRUE(adaptive.Observe(0, 2, 9010));
  EXPECT_EQ(adaptive.FromSource(0), 100u);
  EXPECT_EQ(adaptive.FromSource(1), 100u) << "other sources are untouched";
}

TEST(LbtsStateTest, RelaxedBoundNeverBelowTightAndReportsWidening) {
  LbtsState lbts(2);
  LinkLatencyTable latency(2, /*uniform_us=*/100);
  const std::vector<SimTime> floors = {1000, 2000};
  ASSERT_EQ(lbts.NextBound(floors, latency), 1099u);

  bool widened = true;
  // No adaptive state and no wide span: identical to the conservative bound.
  EXPECT_EQ(lbts.NextRelaxedBound(floors, latency, nullptr, 0, &widened), 1099u);
  EXPECT_FALSE(widened);
  // A wide span measures from the minimum floor.
  EXPECT_EQ(lbts.NextRelaxedBound(floors, latency, nullptr, 800, &widened), 1799u);
  EXPECT_TRUE(widened);
}

TEST(LbtsStateTest, RelaxedBoundUsesLearnedLookaheadPerSource) {
  LbtsState lbts(2);
  LinkLatencyTable latency(2, /*uniform_us=*/100);
  AdaptiveLookahead adaptive(latency, /*growth_cap=*/64, /*window=*/4);
  SendsWithGap(adaptive, 0, 1, 0, 1000, 5);
  ASSERT_EQ(adaptive.FromSource(0), 200u);

  const std::vector<SimTime> floors = {1000, 2000};
  bool widened = false;
  // min(1000 + 200 - 1, 2000 + 100 - 1) = 1199, above the tight 1099.
  EXPECT_EQ(lbts.NextRelaxedBound(floors, latency, &adaptive, 0, &widened), 1199u);
  EXPECT_TRUE(widened);
}

TEST(LbtsStateTest, RelaxedBoundPreservesQuiescenceSignal) {
  LbtsState lbts(2);
  LinkLatencyTable latency(2, /*uniform_us=*/100);
  bool widened = true;
  EXPECT_EQ(lbts.NextRelaxedBound({kSimTimeNever, kSimTimeNever}, latency, nullptr, 1'000'000,
                                  &widened),
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
