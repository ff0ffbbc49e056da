// Tests for the unified Engine interface (src/kernel/engine.h): the shared
// EngineConfig core and construction helpers, the engine-generic harness
// surface on both Cluster and ParallelCluster, conservative-sync integration
// (deadlines fire only for real stalls; the LBTS bound never lets a frame
// into a shard's past), and the chaos harness running on the parallel engine.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>

#include "src/base/stats.h"
#include "src/check/chaos.h"
#include "src/kernel/cluster.h"
#include "src/kernel/engine.h"
#include "src/obs/metrics.h"
#include "src/run/parallel_cluster.h"
#include "src/workload/programs.h"
#include "src/workload/token_ring_harness.h"

namespace demos {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override { RegisterWorkloadPrograms(); }
};

std::unique_ptr<Engine> MakeEngine(bool parallel, int machines) {
  if (!parallel) {
    return std::make_unique<Cluster>(ClusterConfig{.machines = machines});
  }
  ParallelClusterConfig config;
  config.machines = machines;
  return std::make_unique<ParallelCluster>(config);
}

// ---------------------------------------------------------------------------
// The shared config core and construction helpers.
// ---------------------------------------------------------------------------

TEST_F(EngineTest, EngineCoreCarriesSharedConfigFromBothConfigs) {
  ClusterConfig cc{.machines = 5};
  cc.trace_enabled = true;
  cc.metrics_enabled = true;
  cc.flight_recorder_enabled = true;
  cc.flight_capacity = 128;
  cc.kernel.seed = 42;
  const EngineConfig seq = cc.EngineCore();
  EXPECT_EQ(seq.machines, 5);
  EXPECT_TRUE(seq.trace_enabled);
  EXPECT_TRUE(seq.metrics_enabled);
  EXPECT_TRUE(seq.flight_recorder_enabled);
  EXPECT_EQ(seq.flight_capacity, 128u);
  EXPECT_EQ(seq.kernel.seed, 42u);

  ParallelClusterConfig pc;
  pc.machines = 3;
  pc.flight_capacity = 64;
  const EngineConfig par = pc.EngineCore();
  EXPECT_EQ(par.machines, 3);
  EXPECT_TRUE(par.metrics_enabled) << "parallel defaults metrics on";
  EXPECT_TRUE(par.flight_recorder_enabled);
  EXPECT_EQ(par.flight_capacity, 64u);
}

TEST_F(EngineTest, MakeObservabilityFollowsSlotConvention) {
  EngineConfig core;
  core.machines = 4;
  EngineObservability off = MakeObservability(core);
  EXPECT_EQ(off.metrics, nullptr);
  EXPECT_EQ(off.flight, nullptr);

  core.metrics_enabled = true;
  core.flight_recorder_enabled = true;
  EngineObservability on = MakeObservability(core);
  ASSERT_NE(on.metrics, nullptr);
  ASSERT_NE(on.flight, nullptr);
  // machines+1 slots: one per machine plus the harness/window slot.
  EXPECT_EQ(on.metrics->shards(), 5);
  EXPECT_EQ(on.flight->shards(), 5);
}

TEST_F(EngineTest, DeriveKernelConfigSkewsSeedPerMachine) {
  EngineConfig core;
  core.kernel.seed = 100;
  core.kernel.data_packet_bytes = 512;
  const KernelConfig k0 = DeriveKernelConfig(core, 0);
  const KernelConfig k3 = DeriveKernelConfig(core, 3);
  EXPECT_EQ(k0.seed, 100u);
  EXPECT_EQ(k3.seed, 103u);
  EXPECT_EQ(k3.data_packet_bytes, 512u) << "everything but the seed is shared";
}

// ---------------------------------------------------------------------------
// The engine-generic harness surface: one loop body, two engines.
// ---------------------------------------------------------------------------

TEST_F(EngineTest, HarnessSurfaceRunsUnchangedOnBothEngines) {
  for (const bool parallel : {false, true}) {
    SCOPED_TRACE(parallel ? "parallel" : "sequential");
    std::unique_ptr<Engine> engine = MakeEngine(parallel, 3);
    TokenRingSpec spec;
    spec.rings = 2;
    spec.nodes_per_ring = 3;
    spec.tokens_per_node = 1;
    spec.hops_per_token = 12;
    const std::vector<TokenRing> rings = BuildTokenRings(*engine, spec);
    ASSERT_FALSE(rings.empty());
    KickTokenRings(*engine, rings, spec.tokens_per_node, spec.hops_per_token);
    ASSERT_TRUE(engine->RunUntilSettled().settled);

    EXPECT_EQ(engine->size(), 3);
    EXPECT_EQ(engine->TotalStat(stat::kMsgsDelivered), ExpectedRingDeliveries(spec));
    EXPECT_EQ(engine->KernelStats().size(), 3u);
    for (const TokenRing& ring : rings) {
      for (const ProcessAddress& node : ring) {
        EXPECT_EQ(engine->HostOf(node.pid), node.last_known_machine);
        EXPECT_NE(engine->FindProcessAnywhere(node.pid), nullptr);
      }
    }
    const MetricsSnapshot snap = engine->BuildSnapshot();
    EXPECT_EQ(snap.kernel_total.at("kernel.msgs_delivered"),
              engine->TotalStat(stat::kMsgsDelivered));
  }
}

TEST_F(EngineTest, ScheduleOnUsesTheTargetMachineClock) {
  for (const bool parallel : {false, true}) {
    SCOPED_TRACE(parallel ? "parallel" : "sequential");
    std::unique_ptr<Engine> engine = MakeEngine(parallel, 2);
    std::atomic<SimTime> observed{0};
    Engine* e = engine.get();
    engine->ScheduleOn(1, 777, [e, &observed] { observed = e->kernel(1).queue().Now(); });
    ASSERT_TRUE(engine->RunUntilSettled().settled);
    EXPECT_EQ(observed.load(), 777u);
  }
}

TEST_F(EngineTest, ExecuteRunsInTheMachineContext) {
  // Sequential: inline, visible immediately.
  std::unique_ptr<Engine> seq = MakeEngine(false, 2);
  std::atomic<int> ran{0};
  seq->Execute(1, [&ran] { ++ran; });
  EXPECT_EQ(ran.load(), 1);

  // Parallel: posted to the shard thread, visible after the next settle.
  std::unique_ptr<Engine> par = MakeEngine(true, 2);
  ASSERT_TRUE(par->RunUntilSettled().settled);  // start the shards
  par->Execute(1, [&ran] { ++ran; });
  ASSERT_TRUE(par->RunUntilSettled().settled);
  EXPECT_EQ(ran.load(), 2);
}

// ---------------------------------------------------------------------------
// Conservative sync x migration deadlines.
// ---------------------------------------------------------------------------

TEST_F(EngineTest, ArmingDeadlinesAutoEnablesSyncOnParallel) {
  ParallelClusterConfig off;
  off.machines = 2;
  EXPECT_FALSE(ParallelCluster(off).sync_enabled());

  ParallelClusterConfig armed;
  armed.machines = 2;
  armed.kernel.migration_deadlines.offer_accept_us = 5000;
  EXPECT_TRUE(ParallelCluster(armed).sync_enabled());

  ParallelClusterConfig explicit_sync;
  explicit_sync.machines = 2;
  explicit_sync.sync.enabled = true;
  EXPECT_TRUE(ParallelCluster(explicit_sync).sync_enabled());
}

TEST_F(EngineTest, MigrationDeadlineFiresForRealStallUnderParallelSync) {
  ParallelClusterConfig config;
  config.machines = 2;
  config.kernel.migration_deadlines.offer_accept_us = 5000;
  ParallelCluster cluster(config);
  ASSERT_TRUE(cluster.sync_enabled());

  auto victim = cluster.kernel(0).SpawnProcess("idle");
  ASSERT_TRUE(victim.ok());
  // The destination is dead before the run starts: the offer is dropped and
  // only the source watchdog can unwedge the migration.
  cluster.kernel(1).SetHalted(true);
  ParallelCluster* c = &cluster;
  const ProcessId pid = victim->pid;
  cluster.ScheduleOn(0, 1000, [c, pid] {
    (void)c->kernel(0).StartMigration(pid, 1, c->kernel(0).kernel_address());
  });

  ASSERT_TRUE(cluster.RunUntilSettled().settled);
  EXPECT_EQ(cluster.TotalStat(stat::kMigrationsTimedOut), 1);
  EXPECT_GE(cluster.TotalStat(stat::kPeersSuspected), 1);
  EXPECT_EQ(cluster.HostOf(pid), 0) << "source must roll the victim back";
  ASSERT_NE(cluster.FindProcessAnywhere(pid), nullptr);
  cluster.Stop();
}

TEST_F(EngineTest, MigrationDeadlineStaysQuietForHealthyMigration) {
  ParallelClusterConfig config;
  config.machines = 2;
  config.kernel.migration_deadlines.offer_accept_us = 5000;
  config.kernel.migration_deadlines.transfer_progress_us = 5000;
  config.kernel.migration_deadlines.handoff_us = 5000;
  ParallelCluster cluster(config);

  auto victim = cluster.kernel(0).SpawnProcess("idle");
  ASSERT_TRUE(victim.ok());
  ParallelCluster* c = &cluster;
  const ProcessId pid = victim->pid;
  cluster.ScheduleOn(0, 1000, [c, pid] {
    (void)c->kernel(0).StartMigration(pid, 1, c->kernel(0).kernel_address());
  });

  ASSERT_TRUE(cluster.RunUntilSettled().settled);
  EXPECT_EQ(cluster.TotalStat(stat::kMigrations), 1);
  EXPECT_EQ(cluster.TotalStat(stat::kMigrationsTimedOut), 0)
      << "armed deadlines must not fire when every phase makes progress";
  EXPECT_EQ(cluster.HostOf(pid), 1);
  cluster.Stop();
}

// Every event and frame of this run is either staged before Start or produced
// inside sync windows, so the conservative bound must be airtight: zero
// cross-shard frames clamped into a receiver's past, and the closing shards
// must actually have run LBTS rounds to get there.  (Harness injections at
// quiescence barriers are the one legitimate clamp source; this test has
// none.)
TEST_F(EngineTest, LbtsBoundNeverAdmitsAFrameIntoThePast) {
  ParallelClusterConfig config;
  config.machines = 4;
  config.sync.enabled = true;
  // Pin strictly conservative windows: this test is the zero-clamp proof for
  // the static bound, and widening would reroute clamps to wide_frames_clamped.
  config.sync.wide_window_spans = 0;
  config.settle_timeout = std::chrono::milliseconds(60000);
  ParallelCluster cluster(config);

  TokenRingSpec spec;
  spec.rings = 4;
  spec.nodes_per_ring = 4;
  spec.tokens_per_node = 1;
  spec.hops_per_token = 30;
  const std::vector<TokenRing> rings = BuildTokenRings(cluster, spec);
  ASSERT_FALSE(rings.empty());
  KickTokenRings(cluster, rings, spec.tokens_per_node, spec.hops_per_token);
  ASSERT_TRUE(cluster.RunUntilSettled().settled);

  EXPECT_EQ(cluster.TotalStat(stat::kMsgsDelivered), ExpectedRingDeliveries(spec));
  ASSERT_NE(cluster.metrics(), nullptr);
  const MetricsSnapshot snap = cluster.metrics()->Snapshot();
  EXPECT_EQ(snap.total.counters[static_cast<std::size_t>(CounterId::kSyncFramesClamped)], 0u);
  EXPECT_GT(snap.total.counters[static_cast<std::size_t>(CounterId::kLbtsWindows)], 0u);
  // Windows are counted in the window slot only, per the slot convention.
  const ShardSnapshot& coord =
      snap.shards[static_cast<std::size_t>(cluster.coordinator_slot())];
  EXPECT_EQ(coord.counters[static_cast<std::size_t>(CounterId::kLbtsWindows)],
            snap.total.counters[static_cast<std::size_t>(CounterId::kLbtsWindows)]);
  cluster.Stop();
}

TEST_F(EngineTest, AdaptiveLbtsOpensWideWindowsAndKeepsDeliveryExact) {
  // Default sync config: wide windows are ON.  With no migration in flight
  // no shard is ever tight, so the closing shards should be opening wide
  // windows -- and every delivery must still be exactly-once, with clamped
  // arrivals (if any) accounted as wide-era residue, never as a
  // conservative-sync violation.
  ParallelClusterConfig config;
  config.machines = 4;
  config.sync.enabled = true;
  config.settle_timeout = std::chrono::milliseconds(60000);
  ParallelCluster cluster(config);

  TokenRingSpec spec;
  spec.rings = 4;
  spec.nodes_per_ring = 4;
  spec.tokens_per_node = 1;
  spec.hops_per_token = 30;
  const std::vector<TokenRing> rings = BuildTokenRings(cluster, spec);
  ASSERT_FALSE(rings.empty());
  KickTokenRings(cluster, rings, spec.tokens_per_node, spec.hops_per_token);
  ASSERT_TRUE(cluster.RunUntilSettled().settled);

  EXPECT_EQ(cluster.TotalStat(stat::kMsgsDelivered), ExpectedRingDeliveries(spec));
  ASSERT_NE(cluster.metrics(), nullptr);
  const MetricsSnapshot snap = cluster.metrics()->Snapshot();
  EXPECT_GT(snap.total.counters[static_cast<std::size_t>(CounterId::kWideWindowsOpened)], 0u)
      << "a run with no tight consumers should widen its windows";
  EXPECT_EQ(snap.total.counters[static_cast<std::size_t>(CounterId::kSyncFramesClamped)], 0u)
      << "clamps in an ever-wide run belong to wide_frames_clamped";
  cluster.Stop();
}

// The deadline/4 cap end to end: armed deadlines cap the wide span at a
// quarter of the shortest one.  At 400us the cap (100us) is no wider than the
// 100us link latency, so widening is off and every window is strictly
// conservative; at 2s the cap (500ms) sits above the default 512 x 100us span,
// so the same migration-free rings open wide windows.
TEST_F(EngineTest, LbtsDeadlineQuarterCapGatesWideWindows) {
  const auto run = [](SimDuration deadline_us) {
    ParallelClusterConfig config;
    config.machines = 4;
    config.kernel.migration_deadlines.offer_accept_us = deadline_us;
    config.kernel.migration_deadlines.transfer_progress_us = deadline_us;
    config.kernel.migration_deadlines.handoff_us = deadline_us;
    config.settle_timeout = std::chrono::milliseconds(60000);
    ParallelCluster cluster(config);
    EXPECT_TRUE(cluster.sync_enabled()) << "armed deadlines force sync on";

    TokenRingSpec spec;
    spec.rings = 4;
    spec.nodes_per_ring = 4;
    spec.tokens_per_node = 1;
    spec.hops_per_token = 30;
    const std::vector<TokenRing> rings = BuildTokenRings(cluster, spec);
    EXPECT_FALSE(rings.empty());
    KickTokenRings(cluster, rings, spec.tokens_per_node, spec.hops_per_token);
    EXPECT_TRUE(cluster.RunUntilSettled().settled);
    EXPECT_EQ(cluster.TotalStat(stat::kMsgsDelivered), ExpectedRingDeliveries(spec));
    EXPECT_EQ(cluster.TotalStat(stat::kMigrationsTimedOut), 0);
    const MetricsSnapshot snap = cluster.metrics()->Snapshot();
    cluster.Stop();
    return snap;
  };
  const auto counter = [](const MetricsSnapshot& snap, CounterId id) {
    return snap.total.counters[static_cast<std::size_t>(id)];
  };

  const MetricsSnapshot capped = run(400);
  EXPECT_GT(counter(capped, CounterId::kLbtsWindows), 0u);
  EXPECT_EQ(counter(capped, CounterId::kWideWindowsOpened), 0u)
      << "a 100us cap is no wider than the link latency: widening must be off";
  EXPECT_EQ(counter(capped, CounterId::kSyncFramesClamped), 0u)
      << "a never-widened run must never clamp";

  const MetricsSnapshot wide = run(2'000'000);
  EXPECT_GT(counter(wide, CounterId::kWideWindowsOpened), 0u)
      << "a 500ms cap leaves the default wide span in force";
  EXPECT_EQ(counter(wide, CounterId::kSyncFramesClamped), 0u);
}

// ---------------------------------------------------------------------------
// The chaos harness through the Engine seam.
// ---------------------------------------------------------------------------

std::string ViolationSummary(const ChaosResult& result) {
  std::string out;
  for (const auto& v : result.violations) {
    out += v.ToString() + "\n";
  }
  return out;
}

TEST_F(EngineTest, ChaosScenariosPassOnParallelEngine) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ChaosScenario scenario = ScenarioFromSeed(seed);
    ChaosOptions options;
    options.engine = ChaosEngineKind::kParallel;
    options.collect_trace = false;
    options.collect_flight = false;
    const ChaosResult result = RunScenario(scenario, options);
    EXPECT_TRUE(result.ok()) << "seed " << seed << "\n" << ViolationSummary(result);
  }
}

TEST_F(EngineTest, ChaosPermanentDeathPassesOnParallelEngine) {
  ChaosScenario scenario = PermanentDeathScenarioFromSeed(1);
  ChaosOptions options;
  options.engine = ChaosEngineKind::kParallel;
  options.collect_trace = false;
  options.collect_flight = false;
  const ChaosResult result = RunScenario(scenario, options);
  EXPECT_TRUE(result.ok()) << ViolationSummary(result);
}

}  // namespace
}  // namespace demos
