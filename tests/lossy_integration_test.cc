// End-to-end integration under an unreliable network: the full kernel stack
// (messaging, migration, file system) running over a lossy, duplicating
// SimNetwork with the ReliableTransport restoring the paper's assumed
// "any message sent will eventually be delivered" guarantee.

#include <gtest/gtest.h>

#include <cstdint>

#include "tests/sys_test_util.h"

namespace demos {
namespace {

ClusterConfig LossyConfig(int machines, double drop, std::uint64_t seed) {
  ClusterConfig config;
  config.machines = machines;
  config.network.drop_probability = drop;
  config.network.duplicate_probability = drop / 4;
  config.network.seed = seed;
  config.reliable_layer = true;
  config.reliable.retransmit_timeout_us = 2'000;
  return config;
}

class LossyIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testutil::RegisterPrograms();
    RegisterSystemPrograms();
    RegisterWorkloadPrograms();
    GlobalCapture().clear();
  }
};

TEST_F(LossyIntegrationTest, MessagingIsExactlyOnceUnderLoss) {
  Cluster cluster(LossyConfig(2, 0.2, 42));
  auto counter = cluster.kernel(0).SpawnProcess("counter");
  ASSERT_TRUE(counter.ok());
  cluster.RunUntilIdle();
  for (int i = 0; i < 30; ++i) {
    cluster.kernel(1).SendFromKernel(*counter, kIncrement, {});
  }
  cluster.RunUntilIdle();
  ByteReader r(cluster.kernel(0).FindProcess(counter->pid)->memory.ReadData(0, 8));
  EXPECT_EQ(r.U64(), 30u);
  EXPECT_GT(cluster.reliable()->stats().Get(stat::kRelRetransmits), 0);
}

TEST_F(LossyIntegrationTest, MigrationCompletesUnderLoss) {
  Cluster cluster(LossyConfig(2, 0.15, 7));
  auto counter = cluster.kernel(0).SpawnProcess("counter", 16 * 1024, 8192, 2048);
  ASSERT_TRUE(counter.ok());
  cluster.RunUntilIdle();
  for (int i = 0; i < 3; ++i) {
    cluster.kernel(1).SendFromKernel(*counter, kIncrement, {});
  }
  cluster.RunUntilIdle();

  testutil::MigrateAndSettle(cluster, counter->pid, 0, 1);
  ProcessRecord* moved = cluster.kernel(1).FindProcess(counter->pid);
  ASSERT_NE(moved, nullptr);
  ByteReader r(moved->memory.ReadData(0, 8));
  EXPECT_EQ(r.U64(), 3u);

  cluster.kernel(0).SendFromKernel(ProcessAddress{0, counter->pid}, kIncrement, {});
  cluster.RunUntilIdle();
  ByteReader r2(moved->memory.ReadData(0, 8));
  EXPECT_EQ(r2.U64(), 4u);
}

TEST_F(LossyIntegrationTest, FileSystemWorksUnderLoss) {
  Cluster cluster(LossyConfig(3, 0.1, 99));
  BootSystem(cluster);

  FsClientConfig config;
  config.mode = 2;
  config.io_size = 800;
  config.op_count = 6;
  config.think_us = 500;
  config.file_name = "lossy";
  auto client = cluster.kernel(1).SpawnProcess("fs_client", 4096,
                                               kFsClientBufferOffset + 1024, 2048);
  ASSERT_TRUE(client.ok());
  testutil::ConfigureFsClient(cluster, *client, config);

  ASSERT_TRUE(testutil::RunUntil(
      cluster,
      [&] { return testutil::ReadFsClientResults(cluster, client->pid).done != 0; },
      60'000'000));
  FsClientResults results = testutil::ReadFsClientResults(cluster, client->pid);
  EXPECT_EQ(results.completed, 6u);
  EXPECT_EQ(results.errors, 0u);
}

// Property sweep: migration mid-RPC under several loss rates and seeds; the
// client must complete its full series exactly once.
// gtest names each case after the raw bytes of its parameter, so the
// padding between the two fields is spelled out and zeroed: left implicit,
// it holds whatever the stack held and the case names change run to run.
struct LossCase {
  std::int32_t drop_percent;
  std::int32_t zero_padding = 0;
  std::uint64_t seed;
};

class LossSweep : public LossyIntegrationTest,
                  public ::testing::WithParamInterface<LossCase> {};

TEST_P(LossSweep, RpcSeriesSurvivesMigrationUnderLoss) {
  Cluster cluster(LossyConfig(3, GetParam().drop_percent / 100.0, GetParam().seed));
  auto server = cluster.kernel(1).SpawnProcess("rpc_server");
  auto client = cluster.kernel(0).SpawnProcess("rpc_client");
  ASSERT_TRUE(server.ok() && client.ok());
  RpcClientConfig rpc;
  rpc.count = 25;
  rpc.period_us = 4000;
  (void)cluster.kernel(0).FindProcess(client->pid)->memory.WriteData(0, rpc.Encode());
  cluster.RunUntilIdle();

  Link to_server;
  to_server.address = *server;
  cluster.kernel(0).SendFromKernel(*client, kAttachTarget, {}, {to_server});
  cluster.RunFor(30'000);
  (void)cluster.kernel(1).StartMigration(server->pid, 2,
                                         cluster.kernel(1).kernel_address());
  cluster.RunUntilIdle();

  ProcessRecord* record = cluster.FindProcessAnywhere(client->pid);
  auto* program = dynamic_cast<RpcClientProgram*>(record->program.get());
  ASSERT_NE(program, nullptr);
  EXPECT_EQ(program->samples().size(), 25u);
  EXPECT_EQ(cluster.HostOf(server->pid), 2);
}

INSTANTIATE_TEST_SUITE_P(Losses, LossSweep,
                         ::testing::Values(LossCase{.drop_percent = 0, .seed = 1},
                                           LossCase{.drop_percent = 5, .seed = 2},
                                           LossCase{.drop_percent = 10, .seed = 3},
                                           LossCase{.drop_percent = 20, .seed = 4},
                                           LossCase{.drop_percent = 20, .seed = 5},
                                           LossCase{.drop_percent = 30, .seed = 6}));

}  // namespace
}  // namespace demos
