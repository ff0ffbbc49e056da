// Determinism: the entire point of reproducing the paper in simulation mode
// is that any run -- including every migration race -- is exactly repeatable.
// These tests run non-trivial scenarios twice and require bit-identical
// counters, and confirm that changing the seed actually changes stochastic
// outcomes.

#include <gtest/gtest.h>

#include <map>

#include "tests/sys_test_util.h"

namespace demos {
namespace {

class DeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testutil::RegisterPrograms();
    RegisterSystemPrograms();
    RegisterWorkloadPrograms();
    GlobalCapture().clear();
  }
};

// A busy scenario: system boot, file I/O, an FS migration, a client
// migration, and a kill.  Returns every cluster-wide counter.
std::map<std::string, std::int64_t> RunScenario(std::uint64_t net_seed) {
  ClusterConfig config;
  config.machines = 4;
  config.network.jitter_us = 40;  // stochastic network timing
  config.network.seed = net_seed;
  Cluster cluster(config);
  SystemLayout layout = BootSystem(cluster);

  std::vector<ProcessId> clients;
  for (int i = 0; i < 3; ++i) {
    FsClientConfig fs_config;
    fs_config.mode = 2;
    fs_config.io_size = 700;
    fs_config.op_count = 8;
    fs_config.think_us = 400;
    fs_config.file_name = "det_" + std::to_string(i);
    auto client = cluster.kernel(static_cast<MachineId>(1 + i))
                      .SpawnProcess("fs_client", 4096, kFsClientBufferOffset + 1024, 2048);
    testutil::ConfigureFsClient(cluster, *client, fs_config);
    clients.push_back(client->pid);
  }
  cluster.queue().After(9'000, [&cluster, &layout]() {
    const MachineId from = cluster.HostOf(layout.fs_request.pid);
    (void)cluster.kernel(from).StartMigration(layout.fs_request.pid, 3,
                                              cluster.kernel(from).kernel_address());
  });
  cluster.queue().After(15'000, [&cluster, &clients]() {
    const MachineId from = cluster.HostOf(clients[0]);
    (void)cluster.kernel(from).StartMigration(clients[0], 2,
                                              cluster.kernel(from).kernel_address());
  });
  cluster.RunFor(400'000);

  std::map<std::string, std::int64_t> counters = cluster.TotalStats().counters;
  // Fold in delivery results so payload contents are covered too.
  for (std::size_t i = 0; i < clients.size(); ++i) {
    FsClientResults results = testutil::ReadFsClientResults(cluster, clients[i]);
    counters["client_" + std::to_string(i) + "_completed"] =
        static_cast<std::int64_t>(results.completed);
    counters["client_" + std::to_string(i) + "_latency"] =
        static_cast<std::int64_t>(results.total_latency_us);
  }
  counters["final_time"] = static_cast<std::int64_t>(cluster.queue().Now());
  return counters;
}

TEST_F(DeterminismTest, IdenticalSeedsGiveIdenticalRuns) {
  auto first = RunScenario(0xD5EED);
  GlobalCapture().clear();
  auto second = RunScenario(0xD5EED);
  EXPECT_EQ(first, second);
  EXPECT_GT(first.at(stat::kMigrations), 0);  // the scenario actually migrated
}

TEST_F(DeterminismTest, DifferentSeedsDiverge) {
  auto first = RunScenario(1);
  GlobalCapture().clear();
  auto second = RunScenario(2);
  // Jittered networks with different seeds should differ somewhere (latency
  // sums at minimum).  Counters like admin messages may legitimately match.
  EXPECT_NE(first, second);
}

TEST_F(DeterminismTest, LossyRunsAreRepeatableToo) {
  auto run = [this] {
    ClusterConfig config;
    config.machines = 2;
    config.network.drop_probability = 0.2;
    config.network.seed = 77;
    config.reliable_layer = true;
    config.reliable.retransmit_timeout_us = 2'000;
    Cluster cluster(config);
    auto counter = cluster.kernel(0).SpawnProcess("counter");
    cluster.RunUntilIdle();
    for (int i = 0; i < 20; ++i) {
      cluster.kernel(1).SendFromKernel(*counter, kIncrement, {});
    }
    (void)cluster.kernel(0).StartMigration(counter->pid, 1,
                                           cluster.kernel(0).kernel_address());
    cluster.RunUntilIdle();
    auto counters = cluster.TotalStats().counters;
    counters["retransmits"] = cluster.reliable()->stats().Get(stat::kRelRetransmits);
    counters["final_time"] = static_cast<std::int64_t>(cluster.queue().Now());
    return counters;
  };
  auto first = run();
  auto second = run();
  EXPECT_EQ(first, second);
  EXPECT_GT(first.at("retransmits"), 0);
}

}  // namespace
}  // namespace demos
