// Tests for the Cluster harness itself: stats aggregation, process location
// helpers, and kernel traffic over a reordering (jittered) network healed by
// the reliable layer.

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace demos {
namespace {

class ClusterTest : public ::testing::Test {
 protected:
  void SetUp() override { testutil::RegisterPrograms(); }
};

TEST_F(ClusterTest, TotalStatsSumsAcrossKernels) {
  Cluster cluster(ClusterConfig{.machines = 3});
  auto a = cluster.kernel(0).SpawnProcess("counter");
  auto b = cluster.kernel(1).SpawnProcess("counter");
  ASSERT_TRUE(a.ok() && b.ok());
  cluster.RunUntilIdle();
  cluster.kernel(2).SendFromKernel(*a, kIncrement, {});
  cluster.kernel(2).SendFromKernel(*b, kIncrement, {});
  cluster.RunUntilIdle();

  const std::int64_t sum = cluster.kernel(0).stats().Get(stat::kMsgsDelivered) +
                           cluster.kernel(1).stats().Get(stat::kMsgsDelivered) +
                           cluster.kernel(2).stats().Get(stat::kMsgsDelivered);
  EXPECT_EQ(cluster.TotalStat(stat::kMsgsDelivered), sum);
  EXPECT_EQ(sum, 2);

  EXPECT_EQ(cluster.TotalStats().counters.at(stat::kMsgsDelivered), sum);
}

TEST_F(ClusterTest, HostOfTracksMigration) {
  Cluster cluster(ClusterConfig{.machines = 2});
  auto p = cluster.kernel(0).SpawnProcess("idle");
  ASSERT_TRUE(p.ok());
  cluster.RunUntilIdle();
  EXPECT_EQ(cluster.HostOf(p->pid), 0);
  EXPECT_EQ(cluster.FindProcessAnywhere(p->pid), cluster.kernel(0).FindProcess(p->pid));

  testutil::MigrateAndSettle(cluster, p->pid, 0, 1);
  EXPECT_EQ(cluster.HostOf(p->pid), 1);
  EXPECT_EQ(cluster.HostOf(ProcessId{0, 999}), kNoMachine);
  EXPECT_EQ(cluster.FindProcessAnywhere(ProcessId{0, 999}), nullptr);
}

TEST_F(ClusterTest, RunForAdvancesVirtualTimeExactly) {
  Cluster cluster(ClusterConfig{.machines = 1});
  cluster.RunFor(12'345);
  EXPECT_EQ(cluster.queue().Now(), 12'345u);
  cluster.RunFor(655);
  EXPECT_EQ(cluster.queue().Now(), 13'000u);
}

TEST_F(ClusterTest, JitteredNetworkWithReliableLayerKeepsKernelTrafficCorrect) {
  // Heavy jitter reorders datagrams; the reliable layer restores per-pair
  // FIFO, so kernel-level traffic (including a migration) stays correct.
  ClusterConfig config;
  config.machines = 2;
  config.network.jitter_us = 2'000;  // >> propagation: aggressive reordering
  config.network.seed = 4242;
  config.reliable_layer = true;
  config.reliable.retransmit_timeout_us = 20'000;
  Cluster cluster(config);

  auto counter = cluster.kernel(0).SpawnProcess("counter", 8192, 4096, 1024);
  ASSERT_TRUE(counter.ok());
  cluster.RunUntilIdle();
  for (int i = 0; i < 15; ++i) {
    cluster.kernel(1).SendFromKernel(*counter, kIncrement, {});
  }
  cluster.RunUntilIdle();
  (void)cluster.kernel(0).StartMigration(counter->pid, 1,
                                         cluster.kernel(0).kernel_address());
  cluster.RunUntilIdle();
  for (int i = 0; i < 5; ++i) {
    cluster.kernel(0).SendFromKernel(ProcessAddress{0, counter->pid}, kIncrement, {});
  }
  cluster.RunUntilIdle();

  ProcessRecord* moved = cluster.kernel(1).FindProcess(counter->pid);
  ASSERT_NE(moved, nullptr);
  ByteReader r(moved->memory.ReadData(0, 8));
  EXPECT_EQ(r.U64(), 20u);
}

TEST_F(ClusterTest, SeedVariationChangesKernelRandomness) {
  ClusterConfig a_config;
  a_config.kernel.seed = 1;
  ClusterConfig b_config;
  b_config.kernel.seed = 2;
  Cluster a(a_config);
  Cluster b(b_config);
  auto pa = a.kernel(0).SpawnProcess("idle");
  auto pb = b.kernel(0).SpawnProcess("idle");
  ASSERT_TRUE(pa.ok() && pb.ok());
  // The simulated register files are seeded from the kernel RNG.
  EXPECT_NE(a.kernel(0).FindProcess(pa->pid)->dispatch,
            b.kernel(0).FindProcess(pb->pid)->dispatch);
}

}  // namespace
}  // namespace demos
