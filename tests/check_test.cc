// Tests for the cluster invariant checker and the seed-driven chaos harness
// (src/check/).  The headline property: a deliberately broken forwarding
// implementation -- one flipped header field per hop -- is caught by the
// checker with a seed that replays the failure exactly, and the same seed
// runs clean once the fault is removed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/check/chaos.h"
#include "src/check/invariants.h"
#include "tests/test_util.h"

namespace demos {
namespace {

bool HasInvariant(const std::vector<Violation>& violations, const std::string& name) {
  return std::any_of(violations.begin(), violations.end(),
                     [&](const Violation& v) { return v.invariant == name; });
}

// A forwarding implementation with a one-bit bug: every forwarded message has
// its next-hop header field pointed at the wrong machine.  `machines` bounds
// the flip so the address stays routable (the bug mis-routes, it does not
// corrupt framing).
ChaosOptions BrokenForwarding(int machines) {
  ChaosOptions options;
  options.collect_trace = false;
  options.forward_fault = [machines](Message& msg) {
    msg.receiver.last_known_machine =
        static_cast<MachineId>((msg.receiver.last_known_machine + 1) % machines);
  };
  return options;
}

// Seeds whose scenarios exercise forwarding: forwarding mode on and at least
// a handful of migrations, so forwarding hops actually happen.
bool ExercisesForwarding(const ChaosScenario& s) {
  return s.forwarding_mode && s.migrations.size() >= 4;
}

TEST(ChaosScenarioTest, SameSeedDerivesSamePlan) {
  const ChaosScenario a = ScenarioFromSeed(42);
  const ChaosScenario b = ScenarioFromSeed(42);
  EXPECT_EQ(a.Describe(), b.Describe());
  EXPECT_EQ(a.machines, b.machines);
  EXPECT_EQ(a.migrations.size(), b.migrations.size());
  EXPECT_EQ(a.crashes.size(), b.crashes.size());
}

TEST(ChaosScenarioTest, DisableFeatureReportsInactivity) {
  ChaosScenario s = ScenarioFromSeed(1);
  s.crashes.clear();
  EXPECT_FALSE(DisableFeature(&s, ChaosFeature::kCrashes));
  s.crashes.push_back({1000, 5000, 0});
  EXPECT_TRUE(DisableFeature(&s, ChaosFeature::kCrashes));
  EXPECT_TRUE(s.crashes.empty());
}

TEST(ChaosHarnessTest, CleanSeedsPass) {
  ChaosOptions quiet;
  quiet.collect_trace = false;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const ChaosResult result = RunScenario(ScenarioFromSeed(seed), quiet);
    EXPECT_TRUE(result.ok()) << "seed " << seed << ": "
                             << (result.violations.empty()
                                     ? std::string("no detail")
                                     : result.violations.front().ToString());
    EXPECT_TRUE(result.quiescent) << "seed " << seed;
    EXPECT_GT(result.messages_tracked, 0u) << "seed " << seed;
  }
}

TEST(ChaosHarnessTest, SameSeedSameOutcome) {
  // Replayability is the whole point of `chaos_fuzz --seed=N`: the run is a
  // pure function of the seed.
  ChaosOptions quiet;
  quiet.collect_trace = false;
  const ChaosResult first = RunScenario(ScenarioFromSeed(7), quiet);
  const ChaosResult second = RunScenario(ScenarioFromSeed(7), quiet);
  EXPECT_EQ(first.events_executed, second.events_executed);
  EXPECT_EQ(first.messages_tracked, second.messages_tracked);
  EXPECT_EQ(first.probe_rounds, second.probe_rounds);
  EXPECT_EQ(first.violations.size(), second.violations.size());
}

TEST(ChaosHarnessTest, BrokenForwardingCaughtWithReplayableSeed) {
  // Plant the bug, sweep seeds until one catches it, then replay: the same
  // seed must fail again under the fault and pass clean without it.
  std::uint64_t caught_seed = 0;
  for (std::uint64_t seed = 1; seed <= 64 && caught_seed == 0; ++seed) {
    const ChaosScenario scenario = ScenarioFromSeed(seed);
    if (!ExercisesForwarding(scenario)) {
      continue;
    }
    if (!RunScenario(scenario, BrokenForwarding(scenario.machines)).ok()) {
      caught_seed = seed;
    }
  }
  ASSERT_NE(caught_seed, 0u) << "no seed in 1..64 caught the planted forwarding bug";

  const ChaosScenario scenario = ScenarioFromSeed(caught_seed);
  const ChaosResult broken = RunScenario(scenario, BrokenForwarding(scenario.machines));
  EXPECT_FALSE(broken.ok()) << "seed " << caught_seed << " did not replay the failure";

  ChaosOptions quiet;
  quiet.collect_trace = false;
  const ChaosResult clean = RunScenario(scenario, quiet);
  EXPECT_TRUE(clean.ok()) << "seed " << caught_seed
                          << " fails even without the fault: " << clean.violations.size()
                          << " violations";
}

TEST(ChaosHarnessTest, MinimizerShrinksFailingScenario) {
  // Find a failing (seed, fault) pair with several active feature axes, then
  // check the minimizer only returns scenarios that still fail.
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const ChaosScenario scenario = ScenarioFromSeed(seed);
    if (!ExercisesForwarding(scenario) || scenario.migrations.size() < 8) {
      continue;
    }
    const ChaosOptions options = BrokenForwarding(scenario.machines);
    if (RunScenario(scenario, options).ok()) {
      continue;
    }
    const MinimizeResult min = MinimizeScenario(scenario, options);
    EXPECT_GT(min.runs, 0);
    EXPECT_FALSE(RunScenario(min.scenario, options).ok())
        << "minimized scenario no longer fails (seed " << seed << ")";
    EXPECT_LE(min.scenario.migrations.size(), scenario.migrations.size());
    return;
  }
  FAIL() << "no reducible failing scenario found in seeds 1..64";
}

TEST(ClusterCheckerTest, CleanMigrationPassesAllInvariants) {
  testutil::RegisterPrograms();
  ClusterConfig config;
  config.machines = 3;
  config.trace_enabled = true;
  Cluster cluster(config);
  ClusterChecker checker(&cluster);
  cluster.SetObserver(&checker);

  auto counter = cluster.kernel(0).SpawnProcess("counter");
  ASSERT_TRUE(counter.ok());
  checker.ExpectLive(counter->pid);
  for (int i = 0; i < 3; ++i) {
    cluster.kernel(1).SendFromKernel(*counter, kIncrement, {});
  }
  cluster.RunUntilIdle();
  testutil::MigrateAndSettle(cluster, counter->pid, 0, 2);
  // Stale-address traffic exercises the forwarding path under the checker.
  cluster.kernel(1).SendFromKernel(ProcessAddress{0, counter->pid}, kIncrement, {});
  cluster.RunUntilIdle();
  cluster.SetObserver(nullptr);

  const std::vector<Violation> violations = checker.CheckAtQuiescence();
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? std::string() : violations.front().ToString());
  EXPECT_GE(checker.tracked_messages(), 4u);
  EXPECT_EQ(checker.consumed_messages(), checker.tracked_messages());
}

// What a registry-reroute run leaves behind for the assertions below.
struct RerouteRun {
  std::vector<Violation> violations;
  std::int64_t forwarded = 0;
  std::int64_t rerouted = 0;
  std::uint64_t applied = 0;  // increments the moved process consumed
};

// Forwarding reclaim on: m0's drained forwarding record is reclaimed, so
// stale-addressed messages to m0 reach the moved process only through the
// registry reroute in OnAbsentReceiver -- no hop crosses a record.
RerouteRun RunRegistryReroutes(std::function<void(Message&)> fault) {
  testutil::RegisterPrograms();
  ClusterConfig config;
  config.machines = 3;
  config.trace_enabled = true;  // the checker keys messages by trace id
  config.kernel.reclaim_grace_us = 10'000;
  config.kernel.forward_fault = std::move(fault);
  Cluster cluster(config);
  ClusterChecker checker(&cluster);
  cluster.SetObserver(&checker);

  auto mover = cluster.kernel(0).SpawnProcess("counter");
  auto local = cluster.kernel(0).SpawnProcess("counter");
  EXPECT_TRUE(mover.ok() && local.ok());
  checker.ExpectLive(mover->pid);
  cluster.RunUntilIdle();
  testutil::MigrateAndSettle(cluster, mover->pid, 0, 1);
  // Past the grace window, traffic through m0 drives the reclaiming sweep.
  cluster.RunFor(15'000);
  for (int i = 0; i < 70; ++i) {
    cluster.kernel(1).SendFromKernel(*local, kIncrement, {});
  }
  cluster.RunUntilIdle();
  EXPECT_EQ(cluster.kernel(0).process_table().FindEntry(mover->pid), nullptr);

  for (int i = 0; i < 3; ++i) {
    cluster.kernel(2).SendFromKernel(ProcessAddress{0, mover->pid}, kIncrement, {});
  }
  cluster.RunUntilIdle();
  cluster.SetObserver(nullptr);

  RerouteRun run;
  run.violations = checker.CheckAtQuiescence();
  run.forwarded = cluster.TotalStat(stat::kMsgsForwarded);
  run.rerouted = cluster.TotalStat(stat::kGcRerouted);
  if (ProcessRecord* record = cluster.FindProcessAnywhere(mover->pid)) {
    run.applied = ByteReader(record->memory.ReadData(0, 8)).U64();
  }
  return run;
}

TEST(ClusterCheckerTest, BrokenRegistryRerouteFlagged) {
  // The planted forwarding bug reaches the registry reroute, and the checker
  // catches the misrouted hops.
  const RerouteRun broken = RunRegistryReroutes(BrokenForwarding(3).forward_fault);
  EXPECT_GE(broken.rerouted, 1);
  EXPECT_EQ(broken.forwarded, broken.rerouted) << "a hop crossed a forwarding record";
  EXPECT_FALSE(broken.violations.empty()) << "the misrouted reroute went unnoticed";

  // The same run without the fault: every forward is a clean reroute.
  const RerouteRun clean = RunRegistryReroutes(nullptr);
  EXPECT_GE(clean.rerouted, 3);
  EXPECT_EQ(clean.forwarded, clean.rerouted) << "a hop crossed a forwarding record";
  EXPECT_EQ(clean.applied, 3u);
  EXPECT_TRUE(clean.violations.empty())
      << (clean.violations.empty() ? std::string() : clean.violations.front().ToString());
}

TEST(ChaosScenarioTest, PermanentDeathScenarioIsDeterministicAndArmed) {
  const ChaosScenario a = PermanentDeathScenarioFromSeed(42);
  const ChaosScenario b = PermanentDeathScenarioFromSeed(42);
  EXPECT_EQ(a.Describe(), b.Describe());
  ASSERT_EQ(a.deaths.size(), 1u);
  EXPECT_EQ(a.deaths[0].at, b.deaths[0].at);
  EXPECT_EQ(a.deaths[0].machine, b.deaths[0].machine);
  // The variant must arm the failure machinery the deaths exercise: finite
  // retransmission, per-phase deadlines, and no revival crash windows.
  EXPECT_TRUE(a.crashes.empty());
  EXPECT_TRUE(a.reliable);
  EXPECT_GT(a.max_retries, 0u);
  EXPECT_GT(a.migration_deadline_us, 0);
  EXPECT_GE(a.machines, 3);
}

TEST(ChaosHarnessTest, PermanentDeathSeedsPass) {
  ChaosOptions quiet;
  quiet.collect_trace = false;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const ChaosResult result = RunScenario(PermanentDeathScenarioFromSeed(seed), quiet);
    EXPECT_TRUE(result.ok()) << "permadeath seed " << seed << ": "
                             << (result.violations.empty()
                                     ? std::string("no detail")
                                     : result.violations.front().ToString());
    EXPECT_TRUE(result.quiescent) << "permadeath seed " << seed;
  }
}

TEST(ClusterCheckerTest, FrozenMigrationFlaggedAsLivenessViolation) {
  // I8: migrate toward a silently dead destination with the watchdogs
  // DISABLED (deadlines 0).  The source freezes the process, the offer goes
  // into the void, and nothing ever resolves it -- exactly the stuck state
  // the liveness audit exists to catch.
  testutil::RegisterPrograms();
  ClusterConfig config;
  config.machines = 2;
  config.trace_enabled = true;
  Cluster cluster(config);
  ClusterChecker checker(&cluster);
  cluster.SetObserver(&checker);

  auto counter = cluster.kernel(0).SpawnProcess("counter");
  ASSERT_TRUE(counter.ok());
  cluster.RunUntilIdle();
  checker.ExpectLive(counter->pid);

  cluster.kernel(1).SetHalted(true);  // dies without the checker being told
  (void)cluster.kernel(0).StartMigration(counter->pid, 1,
                                         cluster.kernel(0).kernel_address());
  cluster.RunUntilIdle();
  cluster.SetObserver(nullptr);

  EXPECT_TRUE(HasInvariant(checker.CheckAtQuiescence(), "liveness"));
}

TEST(ClusterCheckerTest, DualOwnerFlagged) {
  // Force the bug I4 exists to catch: the same process live on two kernels at
  // once (a botched recovery that restores without reclaiming the original).
  testutil::RegisterPrograms();
  ClusterConfig config;
  config.machines = 2;
  config.trace_enabled = true;
  Cluster cluster(config);

  auto counter = cluster.kernel(0).SpawnProcess("counter");
  ASSERT_TRUE(counter.ok());
  cluster.RunUntilIdle();
  auto checkpoint = cluster.kernel(0).CheckpointProcess(counter->pid);
  ASSERT_TRUE(checkpoint.ok());
  ASSERT_TRUE(cluster.kernel(1).AdoptProcess(*checkpoint).ok());
  cluster.RunUntilIdle();

  ClusterChecker checker(&cluster);
  checker.ExpectLive(counter->pid);
  EXPECT_TRUE(HasInvariant(checker.CheckAtQuiescence(), "single-owner"));
}

TEST(ClusterCheckerTest, LostProcessFlagged) {
  ClusterConfig config;
  config.machines = 2;
  Cluster cluster(config);
  ClusterChecker checker(&cluster);
  checker.ExpectLive(ProcessId{0, 4242});  // never spawned
  EXPECT_TRUE(HasInvariant(checker.CheckAtQuiescence(), "single-owner"));
}

}  // namespace
}  // namespace demos
