// Migration tests (Sec. 3): the 8-step protocol, its exact administrative
// cost, state transparency, autonomy, and exactly-once delivery under races.

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace demos {
namespace {

class MigrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testutil::RegisterPrograms();
    GlobalCapture().clear();
  }
};

TEST_F(MigrationTest, ProcessMovesAndKeepsIdentity) {
  Cluster cluster(ClusterConfig{.machines = 2});
  auto addr = cluster.kernel(0).SpawnProcess("idle");
  ASSERT_TRUE(addr.ok());
  cluster.RunUntilIdle();

  testutil::MigrateAndSettle(cluster, addr->pid, 0, 1);

  EXPECT_EQ(cluster.kernel(0).FindProcess(addr->pid), nullptr);
  ProcessRecord* moved = cluster.kernel(1).FindProcess(addr->pid);
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved->pid, addr->pid);  // "the same process identifier" (step 3)
  EXPECT_EQ(moved->state, ExecState::kWaiting);
  EXPECT_EQ(moved->migration_history, std::vector<MachineId>{0});

  // Source keeps a forwarding address (step 7).
  const auto* entry = cluster.kernel(0).process_table().FindEntry(addr->pid);
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->IsForwarding());
  EXPECT_EQ(entry->forward_to, 1);
}

TEST_F(MigrationTest, UsesExactlyNineAdminMessages) {
  // Sec. 6: "The current DEMOS/MP implementation uses 9 such messages."
  Cluster cluster(ClusterConfig{.machines = 2});
  auto addr = cluster.kernel(0).SpawnProcess("idle");
  ASSERT_TRUE(addr.ok());
  cluster.RunUntilIdle();
  const std::int64_t before = cluster.TotalStat(stat::kAdminMsgs);

  testutil::MigrateAndSettle(cluster, addr->pid, 0, 1);

  EXPECT_EQ(cluster.TotalStat(stat::kAdminMsgs) - before, 9);
}

TEST_F(MigrationTest, AdminPayloadsAreSmall) {
  // Sec. 6: administrative messages are "in the 6-12 byte range"; ours are
  // 9-24 bytes (the offer carries three 32-bit section sizes, and every
  // message from the offer onward a 32-bit attempt number for the watchdog's
  // stale-epoch filtering).
  Cluster cluster(ClusterConfig{.machines = 2});
  auto addr = cluster.kernel(0).SpawnProcess("idle");
  ASSERT_TRUE(addr.ok());
  cluster.RunUntilIdle();
  testutil::MigrateAndSettle(cluster, addr->pid, 0, 1);

  StatsRegistry total = cluster.TotalStats();
  const HistogramSnapshot* sizes = total.GetDistribution("admin_payload_bytes");
  ASSERT_NE(sizes, nullptr);
  EXPECT_EQ(sizes->count, 9u);
  EXPECT_GE(sizes->min, 6u);
  EXPECT_LE(sizes->max, 24u);
}

TEST_F(MigrationTest, ThreeDataMovesPerMigration) {
  // Steps 4-5: resident state, swappable state, and the memory image each
  // travel as one pulled stream.
  Cluster cluster(ClusterConfig{.machines = 2});
  auto addr = cluster.kernel(0).SpawnProcess("idle", 2048, 1024, 512);
  ASSERT_TRUE(addr.ok());
  cluster.RunUntilIdle();

  StatsRegistry before = cluster.TotalStats();
  testutil::MigrateAndSettle(cluster, addr->pid, 0, 1);
  StatsRegistry after = cluster.TotalStats();

  const HistogramSnapshot* resident = after.GetDistribution("resident_state_bytes");
  const HistogramSnapshot* swappable = after.GetDistribution("swappable_state_bytes");
  const HistogramSnapshot* image = after.GetDistribution("memory_image_bytes");
  ASSERT_NE(resident, nullptr);
  ASSERT_NE(swappable, nullptr);
  ASSERT_NE(image, nullptr);
  EXPECT_EQ(resident->count, 1u);
  EXPECT_GT(image->min, 2048u + 1024 + 512 - 1);
  // All bytes arrived: data bytes >= the three sections.
  const std::int64_t moved = after.Get(stat::kDataBytes) - before.Get(stat::kDataBytes);
  EXPECT_GE(moved, static_cast<std::int64_t>(resident->sum + swappable->sum + image->sum));
}

TEST_F(MigrationTest, CounterStateIsTransparentAcrossMigration) {
  Cluster cluster(ClusterConfig{.machines = 2});
  auto counter = cluster.kernel(0).SpawnProcess("counter");
  ASSERT_TRUE(counter.ok());
  cluster.RunUntilIdle();

  for (int i = 0; i < 3; ++i) {
    cluster.kernel(1).SendFromKernel(*counter, kIncrement, {});
  }
  cluster.RunUntilIdle();
  testutil::MigrateAndSettle(cluster, counter->pid, 0, 1);
  for (int i = 0; i < 4; ++i) {
    cluster.kernel(0).SendFromKernel(ProcessAddress{1, counter->pid}, kIncrement, {});
  }
  cluster.RunUntilIdle();

  ProcessRecord* record = cluster.kernel(1).FindProcess(counter->pid);
  ASSERT_NE(record, nullptr);
  ByteReader data(record->memory.ReadData(0, 8));
  EXPECT_EQ(data.U64(), 7u);  // data segment moved intact and kept counting

  // Program-private state (SaveState/RestoreState) also moved: 7 handled.
  EXPECT_EQ(record->messages_handled, 7u);
}

TEST_F(MigrationTest, DispatchInfoAndKernelContextMoveBitForBit) {
  Cluster cluster(ClusterConfig{.machines = 2});
  auto addr = cluster.kernel(0).SpawnProcess("idle");
  ASSERT_TRUE(addr.ok());
  cluster.RunUntilIdle();
  ProcessRecord* original = cluster.kernel(0).FindProcess(addr->pid);
  const DispatchInfo dispatch_before = original->dispatch;
  const Bytes context_before = original->kernel_context;
  const std::uint64_t cpu_before = original->cpu_used_us;

  testutil::MigrateAndSettle(cluster, addr->pid, 0, 1);

  ProcessRecord* moved = cluster.kernel(1).FindProcess(addr->pid);
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved->dispatch, dispatch_before);
  EXPECT_EQ(moved->kernel_context, context_before);
  EXPECT_EQ(moved->cpu_used_us, cpu_before);
}

TEST_F(MigrationTest, LinkTableMovesWithProcess) {
  Cluster cluster(ClusterConfig{.machines = 2});
  auto addr = cluster.kernel(0).SpawnProcess("relay");
  ASSERT_TRUE(addr.ok());
  cluster.RunUntilIdle();
  Link held;
  held.address = ProcessAddress{1, {1, 99}};
  held.flags = kLinkDataRead;
  held.data_offset = 4;
  held.data_length = 44;
  cluster.kernel(0).FindProcess(addr->pid)->links.Insert(held);

  testutil::MigrateAndSettle(cluster, addr->pid, 0, 1);

  ProcessRecord* moved = cluster.kernel(1).FindProcess(addr->pid);
  ASSERT_NE(moved, nullptr);
  ASSERT_NE(moved->links.Get(0), nullptr);
  EXPECT_EQ(*moved->links.Get(0), held);  // links are context-independent
}

TEST_F(MigrationTest, PendingMessagesAreForwardedAndDelivered) {
  // Step 6: messages queued when migration starts, or arriving during it,
  // are re-sent to the new location.
  Cluster cluster(ClusterConfig{.machines = 2});
  auto counter = cluster.kernel(0).SpawnProcess("counter", 64 * 1024, 16 * 1024, 4096);
  ASSERT_TRUE(counter.ok());
  cluster.RunUntilIdle();

  // Start the migration but do not settle; the big image keeps it in flight.
  ASSERT_TRUE(
      cluster.kernel(0).StartMigration(counter->pid, 1, cluster.kernel(0).kernel_address()).ok());
  cluster.RunFor(50);  // request is now being processed; process frozen

  for (int i = 0; i < 6; ++i) {
    cluster.kernel(1).SendFromKernel(ProcessAddress{0, counter->pid}, kIncrement, {});
    cluster.RunFor(30);
  }
  cluster.RunUntilIdle();

  ProcessRecord* moved = cluster.kernel(1).FindProcess(counter->pid);
  ASSERT_NE(moved, nullptr);
  ByteReader data(moved->memory.ReadData(0, 8));
  EXPECT_EQ(data.U64(), 6u);
  EXPECT_GT(cluster.kernel(0).stats().Get(stat::kPendingForwarded), 0);
}

TEST_F(MigrationTest, TimerFiresExactlyOnceAfterMigration) {
  Cluster cluster(ClusterConfig{.machines = 2});
  auto timer = cluster.kernel(0).SpawnProcess("timer");
  ASSERT_TRUE(timer.ok());
  cluster.RunFor(100);  // OnStart ran, timer armed ~50ms out

  // Settling runs the cluster to idle, which includes the re-armed timer
  // firing on the destination.
  testutil::MigrateAndSettle(cluster, timer->pid, 0, 1);
  cluster.RunFor(100'000);
  cluster.RunUntilIdle();

  ProcessRecord* moved = cluster.kernel(1).FindProcess(timer->pid);
  ASSERT_NE(moved, nullptr);
  ByteReader fired(moved->memory.ReadData(8, 8));
  EXPECT_EQ(fired.U64(), 1u);  // once, on the destination
  EXPECT_TRUE(moved->timers.empty());
}

TEST_F(MigrationTest, SuspendedProcessStaysSuspended) {
  // Step 1: "No change is made to the recorded state of the process."
  Cluster cluster(ClusterConfig{.machines = 2});
  ProcessAddress sink = [&] {
    auto a = cluster.kernel(0).SpawnProcess("sink");
    cluster.RunUntilIdle();
    testutil::TagProcess(cluster, *a, 50);
    return *a;
  }();

  cluster.kernel(1).SendFromKernel(sink, MsgType::kSuspendProcess, {}, {},
                                   kLinkDeliverToKernel);
  cluster.RunUntilIdle();
  testutil::MigrateAndSettle(cluster, sink.pid, 0, 1);

  ProcessRecord* moved = cluster.kernel(1).FindProcess(sink.pid);
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved->state, ExecState::kSuspended);

  cluster.kernel(0).SendFromKernel(ProcessAddress{0, sink.pid}, kNote, {9});
  cluster.RunUntilIdle();
  EXPECT_TRUE(testutil::CapturedFor(50).empty());  // still suspended

  // Resume via DELIVERTOKERNEL addressed to the *old* machine: control
  // follows the process (Sec. 2.2).
  cluster.kernel(0).SendFromKernel(ProcessAddress{0, sink.pid}, MsgType::kResumeProcess, {}, {},
                                   kLinkDeliverToKernel);
  cluster.RunUntilIdle();
  EXPECT_EQ(testutil::CapturedFor(50).size(), 1u);
}

TEST_F(MigrationTest, DestinationCanRefuse) {
  // Sec. 3.2: "If the destination machine refuses, the process cannot be
  // migrated" -- and it keeps running at the source.
  ClusterConfig config;
  config.machines = 2;
  config.kernel.accept_migration = [](const MigrateOffer&) { return false; };
  Cluster cluster(config);
  auto counter = cluster.kernel(0).SpawnProcess("counter");
  ASSERT_TRUE(counter.ok());
  cluster.RunUntilIdle();

  testutil::MigrateAndSettle(cluster, counter->pid, 0, 1);

  ASSERT_NE(cluster.kernel(0).FindProcess(counter->pid), nullptr);
  EXPECT_EQ(cluster.kernel(1).FindProcess(counter->pid), nullptr);
  EXPECT_EQ(cluster.TotalStat(stat::kMigrationsRefused), 1);

  // The requester was told.
  ASSERT_EQ(cluster.kernel(0).migrate_done_log().size(), 1u);
  EXPECT_EQ(cluster.kernel(0).migrate_done_log()[0].status, StatusCode::kRefused);

  // And the process still works.
  cluster.kernel(1).SendFromKernel(*counter, kIncrement, {});
  cluster.RunUntilIdle();
  ByteReader data(cluster.kernel(0).FindProcess(counter->pid)->memory.ReadData(0, 8));
  EXPECT_EQ(data.U64(), 1u);
}

TEST_F(MigrationTest, DestinationRefusesWhenOutOfMemory) {
  ClusterConfig config;
  config.machines = 2;
  config.kernel.memory_limit_bytes = 32 * 1024;
  Cluster cluster(config);
  auto big = cluster.kernel(0).SpawnProcess("idle", 16 * 1024, 8 * 1024, 4096);
  auto hog = cluster.kernel(1).SpawnProcess("idle", 16 * 1024, 8 * 1024, 4096);
  ASSERT_TRUE(big.ok() && hog.ok());
  cluster.RunUntilIdle();

  testutil::MigrateAndSettle(cluster, big->pid, 0, 1);
  ASSERT_NE(cluster.kernel(0).FindProcess(big->pid), nullptr);
  ASSERT_EQ(cluster.kernel(0).migrate_done_log().size(), 1u);
  EXPECT_EQ(cluster.kernel(0).migrate_done_log()[0].status, StatusCode::kExhausted);
}

TEST_F(MigrationTest, RequesterIsNotifiedOnSuccess) {
  Cluster cluster(ClusterConfig{.machines = 3});
  auto addr = cluster.kernel(0).SpawnProcess("idle");
  ASSERT_TRUE(addr.ok());
  cluster.RunUntilIdle();
  // Requester is machine 2's kernel, a third party.
  ASSERT_TRUE(
      cluster.kernel(0).StartMigration(addr->pid, 1, cluster.kernel(2).kernel_address()).ok());
  cluster.RunUntilIdle();
  ASSERT_EQ(cluster.kernel(2).migrate_done_log().size(), 1u);
  EXPECT_EQ(cluster.kernel(2).migrate_done_log()[0].status, StatusCode::kOk);
  EXPECT_EQ(cluster.kernel(2).migrate_done_log()[0].final_home, 1);
  EXPECT_EQ(cluster.kernel(2).migrate_done_log()[0].pid, addr->pid);
}

TEST_F(MigrationTest, MigrateToSelfIsNoop) {
  Cluster cluster(ClusterConfig{.machines = 2});
  auto addr = cluster.kernel(0).SpawnProcess("idle");
  ASSERT_TRUE(addr.ok());
  cluster.RunUntilIdle();
  const std::int64_t admin_before = cluster.TotalStat(stat::kAdminMsgs);
  testutil::MigrateAndSettle(cluster, addr->pid, 0, 0);
  EXPECT_NE(cluster.kernel(0).FindProcess(addr->pid), nullptr);
  // Only the request itself; no offer/accept/pull protocol.
  EXPECT_EQ(cluster.TotalStat(stat::kAdminMsgs) - admin_before, 2);  // request + done
}

TEST_F(MigrationTest, ChainOfMigrationsLeavesForwardingChain) {
  Cluster cluster(ClusterConfig{.machines = 4});
  auto counter = cluster.kernel(0).SpawnProcess("counter");
  ASSERT_TRUE(counter.ok());
  cluster.RunUntilIdle();

  testutil::MigrateAndSettle(cluster, counter->pid, 0, 1);
  testutil::MigrateAndSettle(cluster, counter->pid, 1, 2);
  testutil::MigrateAndSettle(cluster, counter->pid, 2, 3);

  ProcessRecord* moved = cluster.kernel(3).FindProcess(counter->pid);
  ASSERT_NE(moved, nullptr);
  EXPECT_EQ(moved->migration_history, (std::vector<MachineId>{0, 1, 2}));

  // A message sent with the original (machine-0) address traverses the chain.
  cluster.kernel(0).SendFromKernel(ProcessAddress{0, counter->pid}, kIncrement, {});
  cluster.RunUntilIdle();
  ByteReader data(moved->memory.ReadData(0, 8));
  EXPECT_EQ(data.U64(), 1u);
}

TEST_F(MigrationTest, ProcessCanMigrateBackToMachineItLeft) {
  // Returning home finds a stale forwarding entry for the pid; the arriving
  // process must supersede it, not be refused (a live record still refuses --
  // see DestinationCanRefuse).
  Cluster cluster(ClusterConfig{.machines = 2});
  auto counter = cluster.kernel(0).SpawnProcess("counter");
  ASSERT_TRUE(counter.ok());
  cluster.RunUntilIdle();

  testutil::MigrateAndSettle(cluster, counter->pid, 0, 1);
  testutil::MigrateAndSettle(cluster, counter->pid, 1, 0);

  ProcessRecord* home = cluster.kernel(0).FindProcess(counter->pid);
  ASSERT_NE(home, nullptr);
  EXPECT_EQ(home->migration_history, (std::vector<MachineId>{0, 1}));
  EXPECT_EQ(cluster.TotalStat("forwarding_superseded"), 1);

  // Machine 1 now forwards, and the returned process is fully reachable.
  cluster.kernel(1).SendFromKernel(ProcessAddress{1, counter->pid}, kIncrement, {});
  cluster.RunUntilIdle();
  ByteReader data(home->memory.ReadData(0, 8));
  EXPECT_EQ(data.U64(), 1u);

  // Round trip again: the supersede works repeatedly.
  testutil::MigrateAndSettle(cluster, counter->pid, 0, 1);
  testutil::MigrateAndSettle(cluster, counter->pid, 1, 0);
  EXPECT_NE(cluster.kernel(0).FindProcess(counter->pid), nullptr);
  EXPECT_EQ(cluster.TotalStat("forwarding_superseded"), 3);
}

TEST_F(MigrationTest, VoluntaryMigrationViaRequestMigration) {
  Cluster cluster(ClusterConfig{.machines = 2});
  auto nomad = cluster.kernel(0).SpawnProcess("nomad");
  ASSERT_TRUE(nomad.ok());
  cluster.RunUntilIdle();

  ByteWriter w;
  w.U16(1);
  cluster.kernel(0).SendFromKernel(*nomad, kGoTo, w.Take());
  cluster.RunUntilIdle();

  EXPECT_EQ(cluster.kernel(0).FindProcess(nomad->pid), nullptr);
  EXPECT_NE(cluster.kernel(1).FindProcess(nomad->pid), nullptr);
}

TEST_F(MigrationTest, BackToBackMigrationRequestsOnlyFirstWins) {
  Cluster cluster(ClusterConfig{.machines = 3});
  auto addr = cluster.kernel(0).SpawnProcess("idle", 32 * 1024, 8192, 4096);
  ASSERT_TRUE(addr.ok());
  cluster.RunUntilIdle();
  ASSERT_TRUE(
      cluster.kernel(0).StartMigration(addr->pid, 1, cluster.kernel(0).kernel_address()).ok());
  ASSERT_TRUE(
      cluster.kernel(0).StartMigration(addr->pid, 2, cluster.kernel(0).kernel_address()).ok());
  cluster.RunUntilIdle();
  // The first request migrates to m1; the second was either rejected as
  // already-in-migration or executed afterwards from m1 -- in both cases the
  // process must exist in exactly one place.
  int live = 0;
  for (MachineId m = 0; m < 3; ++m) {
    live += cluster.kernel(m).FindProcess(addr->pid) != nullptr ? 1 : 0;
  }
  EXPECT_EQ(live, 1);
}

// Property: regardless of when the migration is injected relative to a
// stream of increments, every increment is applied exactly once.
class MigrationRaceSweep : public MigrationTest,
                           public ::testing::WithParamInterface<int> {};

TEST_P(MigrationRaceSweep, ExactlyOnceDelivery) {
  Cluster cluster(ClusterConfig{.machines = 3});
  auto counter = cluster.kernel(0).SpawnProcess("counter", 16 * 1024, 8192, 2048);
  ASSERT_TRUE(counter.ok());
  cluster.RunUntilIdle();

  constexpr int kMessages = 40;
  const SimDuration spacing = 97;
  // A client on m2 fires increments at fixed cadence, addressed to m0.
  for (int i = 0; i < kMessages; ++i) {
    cluster.queue().At(1000 + static_cast<SimTime>(i) * spacing, [&cluster, &counter]() {
      cluster.kernel(2).SendFromKernel(ProcessAddress{0, counter->pid}, kIncrement, {});
    });
  }
  // Inject the migration at the parameterized instant.
  const SimTime migrate_at = 900 + static_cast<SimTime>(GetParam()) * 131;
  cluster.queue().At(migrate_at, [&cluster, &counter]() {
    (void)cluster.kernel(0).StartMigration(counter->pid, 1,
                                           cluster.kernel(0).kernel_address());
  });
  cluster.RunUntilIdle();

  ProcessRecord* record = cluster.FindProcessAnywhere(counter->pid);
  ASSERT_NE(record, nullptr);
  ByteReader data(record->memory.ReadData(0, 8));
  EXPECT_EQ(data.U64(), static_cast<std::uint64_t>(kMessages));
  EXPECT_EQ(cluster.HostOf(counter->pid), 1);
}

INSTANTIATE_TEST_SUITE_P(RaceTimings, MigrationRaceSweep, ::testing::Range(0, 24));

}  // namespace
}  // namespace demos
