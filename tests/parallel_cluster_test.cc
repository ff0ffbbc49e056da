// Tests for the parallel execution engine (src/run): the lock-free mailbox,
// the ShardRouter transport, ParallelCluster quiescence, and -- the point of
// the whole engine -- engine equivalence: one workload runner programmed
// against the Engine interface, instantiated over the deterministic Cluster,
// the free-running ParallelCluster, and the conservatively-synced
// ParallelCluster, must converge to identical process locations, link
// tables, and exactly-once delivery counts on all three.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/base/stats.h"
#include "src/kernel/cluster.h"
#include "src/kernel/engine.h"
#include "src/run/mpsc_queue.h"
#include "src/run/parallel_cluster.h"
#include "src/run/shard_router.h"
#include "src/workload/programs.h"
#include "src/workload/token_ring_harness.h"

namespace demos {
namespace {

class ParallelClusterTest : public ::testing::Test {
 protected:
  void SetUp() override { RegisterWorkloadPrograms(); }
};

// ---------------------------------------------------------------------------
// BoundedMpscQueue units.
// ---------------------------------------------------------------------------

TEST_F(ParallelClusterTest, MpscQueueFifoAndCapacity) {
  BoundedMpscQueue<int> queue(4);
  EXPECT_EQ(queue.capacity(), 4u);
  EXPECT_TRUE(queue.Empty());

  for (int i = 0; i < 4; ++i) {
    int v = i;
    EXPECT_TRUE(queue.TryPush(v));
  }
  int overflow = 99;
  EXPECT_FALSE(queue.TryPush(overflow));
  EXPECT_EQ(overflow, 99);  // untouched on failure

  for (int i = 0; i < 4; ++i) {
    int out = -1;
    ASSERT_TRUE(queue.TryPop(out));
    EXPECT_EQ(out, i);
  }
  int out = -1;
  EXPECT_FALSE(queue.TryPop(out));
  EXPECT_TRUE(queue.Empty());

  // Wrap-around after the ring has gone full once.
  for (int lap = 0; lap < 3; ++lap) {
    for (int i = 0; i < 3; ++i) {
      int v = lap * 10 + i;
      ASSERT_TRUE(queue.TryPush(v));
    }
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(queue.TryPop(out));
      EXPECT_EQ(out, lap * 10 + i);
    }
  }
}

TEST_F(ParallelClusterTest, MpscQueueMovesOnlyOnSuccess) {
  BoundedMpscQueue<std::unique_ptr<int>> queue(2);
  auto a = std::make_unique<int>(1);
  auto b = std::make_unique<int>(2);
  auto c = std::make_unique<int>(3);
  ASSERT_TRUE(queue.TryPush(a));
  ASSERT_TRUE(queue.TryPush(b));
  EXPECT_EQ(a, nullptr);
  EXPECT_FALSE(queue.TryPush(c));
  ASSERT_NE(c, nullptr);  // a failed push must not consume the item
  EXPECT_EQ(*c, 3);

  std::unique_ptr<int> out;
  ASSERT_TRUE(queue.TryPop(out));
  EXPECT_EQ(*out, 1);
  ASSERT_TRUE(queue.TryPush(c));
  ASSERT_TRUE(queue.TryPop(out));
  EXPECT_EQ(*out, 2);
  ASSERT_TRUE(queue.TryPop(out));
  EXPECT_EQ(*out, 3);
}

TEST_F(ParallelClusterTest, MpscQueueConcurrentProducersKeepPerProducerFifo) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 4000;
  BoundedMpscQueue<std::pair<int, int>> queue(64);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        std::pair<int, int> item{p, i};
        while (!queue.TryPush(item)) {
          std::this_thread::yield();
        }
      }
    });
  }

  std::vector<int> next_expected(kProducers, 0);
  int received = 0;
  while (received < kProducers * kPerProducer) {
    std::pair<int, int> item;
    if (!queue.TryPop(item)) {
      std::this_thread::yield();
      continue;
    }
    ASSERT_EQ(item.second, next_expected[item.first])
        << "producer " << item.first << " reordered";
    ++next_expected[item.first];
    ++received;
  }
  for (auto& t : producers) {
    t.join();
  }
  EXPECT_TRUE(queue.Empty());
}

// ---------------------------------------------------------------------------
// ShardRouter: backpressure and delivery accounting.
// ---------------------------------------------------------------------------

TEST_F(ParallelClusterTest, ShardRouterBackpressureBlocksWithoutLosingOrOrdering) {
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 3000;
  ShardRouterConfig config;
  config.mailbox_capacity = 8;  // tiny: every producer slams into backpressure
  ShardRouter router(kProducers + 1, config);

  const MachineId sink = 0;
  std::map<std::uint32_t, std::uint32_t> next_seq;
  std::uint64_t received = 0;
  router.Attach(sink, [&](MachineId /*src*/, PayloadRef payload) {
    ByteReader r(payload);
    const std::uint32_t producer = r.U32();
    const std::uint32_t seq = r.U32();
    EXPECT_EQ(seq, next_seq[producer]) << "producer " << producer << " reordered";
    next_seq[producer] = seq + 1;
    ++received;
  });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    // Each producer thread sends as shard p+1, which it trivially owns.
    producers.emplace_back([&router, p] {
      const auto src = static_cast<MachineId>(p + 1);
      for (int i = 0; i < kPerProducer; ++i) {
        ByteWriter w;
        w.U32(static_cast<std::uint32_t>(p));
        w.U32(static_cast<std::uint32_t>(i));
        router.Send(src, sink, w.Take());
      }
    });
  }

  const std::uint64_t want = static_cast<std::uint64_t>(kProducers) * kPerProducer;
  while (received < want) {
    if (router.Drain(sink, 64) == 0) {
      std::this_thread::yield();
    }
  }
  for (auto& t : producers) {
    t.join();
  }
  EXPECT_EQ(router.sent(), want);
  EXPECT_EQ(router.consumed(), want);
  EXPECT_GT(router.backpressure_hits(), 0u);
  EXPECT_FALSE(router.HasMail(sink));
}

// ---------------------------------------------------------------------------
// Destination batching: staging visibility, per-link FIFO, spill, elision.
// ---------------------------------------------------------------------------

TEST_F(ParallelClusterTest, ShardRouterBatchingStagesUntilFlushAndKeepsPerLinkFifo) {
  ShardRouterConfig config;
  config.max_batch_frames = 8;
  ShardRouter router(3, config);
  router.SetBatchingEnabled(true);

  std::map<std::uint32_t, std::uint32_t> next_seq;
  std::uint64_t received = 0;
  router.Attach(0, [&](MachineId src, PayloadRef payload) {
    ByteReader r(payload);
    const std::uint32_t producer = r.U32();
    const std::uint32_t seq = r.U32();
    EXPECT_EQ(static_cast<std::uint32_t>(src), producer);
    EXPECT_EQ(seq, next_seq[producer]) << "link " << producer << "->0 reordered";
    next_seq[producer] = seq + 1;
    ++received;
  });

  auto send = [&router](MachineId src, std::uint32_t seq) {
    ByteWriter w;
    w.U32(src);
    w.U32(seq);
    router.Send(src, 0, w.Take());
  };

  // Staged frames are counted as sent (in flight) but invisible to the
  // destination until their lane is published.
  send(1, 0);
  send(1, 1);
  send(2, 0);
  EXPECT_EQ(router.StagedFrames(1), 2u);
  EXPECT_EQ(router.StagedFrames(2), 1u);
  EXPECT_EQ(router.sent(), 3u);
  EXPECT_FALSE(router.HasMail(0));
  EXPECT_EQ(router.Drain(0, 64), 0u);

  // Flush source 2 before source 1: cross-link order is unspecified, but
  // each link must still deliver its own frames in send order.
  EXPECT_EQ(router.Flush(2), 1u);
  EXPECT_EQ(router.Flush(1), 2u);
  EXPECT_EQ(router.StagedFrames(1), 0u);
  EXPECT_EQ(router.Drain(0, 64), 3u);

  // A lane that reaches max_batch_frames publishes itself mid-round; the
  // stragglers follow on the next Flush without reordering the link.
  for (std::uint32_t i = 2; i < 13; ++i) {
    send(1, i);
  }
  EXPECT_EQ(router.StagedFrames(1), 3u);  // 8 auto-published, 3 staged
  EXPECT_TRUE(router.HasMail(0));
  EXPECT_EQ(router.Flush(1), 3u);
  EXPECT_EQ(router.Drain(0, 64), 11u);
  EXPECT_EQ(received, 14u);
  EXPECT_EQ(router.sent(), router.consumed());
}

TEST_F(ParallelClusterTest, ShardRouterBatchPublishSpillsWhenDestinationMailboxFullMidBatch) {
  // Self-sends against a tiny mailbox: the publisher fills its own ring
  // mid-batch, and the blocked publish must rescue the ring into the spill
  // queue instead of deadlocking.  FIFO must survive the ring -> spill hop.
  ShardRouterConfig config;
  config.mailbox_capacity = 2;
  config.max_batch_frames = 4;
  ShardRouter router(1, config);
  router.SetBatchingEnabled(true);
  MetricsEngine metrics(1);
  router.SetObservability(&metrics, nullptr);

  std::uint32_t next = 0;
  router.Attach(0, [&](MachineId src, PayloadRef payload) {
    EXPECT_EQ(src, 0);
    ByteReader r(payload);
    EXPECT_EQ(r.U32(), next);
    ++next;
  });

  constexpr std::uint32_t kFrames = 64;
  std::uint32_t sent = 0;
  for (int phase = 0; phase < 2; ++phase) {
    for (std::uint32_t i = 0; i < kFrames / 2; ++i) {
      ByteWriter w;
      w.U32(sent++);
      router.Send(0, 0, w.Take());  // every 4th send auto-publishes a batch
    }
    router.Flush(0);
    while (router.Drain(0, 16) != 0) {
    }
  }
  EXPECT_GT(router.spill_rescues(), 0u) << "full ring mid-batch must spill";
  EXPECT_EQ(next, kFrames);
  EXPECT_EQ(router.sent(), router.consumed());
  EXPECT_EQ(router.SpillDepth(0), 0u);
  // Batch buffers recycle through the consumer's own free list: after the
  // first drained batches come back, lane acquisition stops hitting the heap.
  EXPECT_GT(metrics.shard(0).Counter(CounterId::kPoolHits), 0u);
  const HistogramSnapshot batch = metrics.shard(0).Histogram(HistogramId::kBatchSize);
  EXPECT_EQ(batch.count, kFrames / 4);
  EXPECT_EQ(batch.sum, kFrames);
}

TEST_F(ParallelClusterTest, ShardRouterFlowSlotsSumOwnerAndOutsideSendersExactly) {
  // Three owner-thread senders (shards 0-2, batching on) and one sender id
  // outside the shard set, all sending to shards 0 and 1, which drain on
  // their own threads.  The per-shard flow slots and the shared outside slot
  // must sum to exact totals, and a reader taking consumed() before sent()
  // must never see more consumed than sent while the traffic runs.
  constexpr int kMachines = 3;
  constexpr MachineId kOutside = kMachines;
  constexpr std::uint32_t kPerSender = 4000;
  constexpr std::uint64_t kSenders = 4;
  constexpr std::uint64_t kPerDestination = kSenders * kPerSender / 2;
  ShardRouter router(kMachines);
  router.SetBatchingEnabled(true);

  std::uint64_t received[2] = {0, 0};
  std::map<std::uint32_t, std::uint32_t> next_seq[2];
  for (MachineId dst = 0; dst < 2; ++dst) {
    router.Attach(dst, [&, dst](MachineId src, PayloadRef payload) {
      ByteReader r(payload);
      const std::uint32_t sender = r.U32();
      const std::uint32_t seq = r.U32();
      EXPECT_EQ(sender, static_cast<std::uint32_t>(src));
      EXPECT_EQ(seq, next_seq[dst][sender]) << "link " << sender << "->" << dst << " reordered";
      next_seq[dst][sender] = seq + 2;  // each sender alternates destinations
      ++received[dst];
    });
  }

  auto send_all = [&router](MachineId src) {
    for (std::uint32_t i = 0; i < kPerSender; ++i) {
      ByteWriter w;
      w.U32(src);
      w.U32(i);
      router.Send(src, static_cast<MachineId>(i % 2), w.Take());
    }
    router.Flush(src);
  };
  for (MachineId dst = 0; dst < 2; ++dst) {
    next_seq[dst][0] = next_seq[dst][1] = next_seq[dst][2] = next_seq[dst][kOutside] = dst;
  }

  std::atomic<int> running{4};
  std::vector<std::thread> threads;
  for (MachineId owner = 0; owner < 2; ++owner) {
    threads.emplace_back([&, owner] {
      send_all(owner);
      while (received[owner] < kPerDestination) {
        if (router.Drain(owner, 64) == 0) {
          std::this_thread::yield();
        }
      }
      running.fetch_sub(1);
    });
  }
  threads.emplace_back([&] {
    send_all(2);
    running.fetch_sub(1);
  });
  threads.emplace_back([&] {
    send_all(kOutside);
    running.fetch_sub(1);
  });

  bool ordered = true;
  while (running.load() != 0) {
    const std::uint64_t consumed = router.consumed();
    const std::uint64_t sent = router.sent();
    ordered = ordered && sent >= consumed;
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_TRUE(ordered) << "consumed() read before sent() exceeded it";
  EXPECT_EQ(received[0], kPerDestination);
  EXPECT_EQ(received[1], kPerDestination);
  EXPECT_EQ(router.sent(), kSenders * kPerSender);
  EXPECT_EQ(router.consumed(), kSenders * kPerSender);
  EXPECT_FALSE(router.HasMail(0));
  EXPECT_FALSE(router.HasMail(1));
}

TEST_F(ParallelClusterTest, ShardRouterElidesNotifyWhenBlockedConsumerIsAwake) {
  // A producer blocked on a full mailbox whose consumer is running (not
  // parked) must not burn a condvar notify per retry: the elision is counted
  // once per backpressure episode instead.
  ShardRouterConfig config;
  config.mailbox_capacity = 2;
  config.spin_before_yield = 4;
  ShardRouter router(2, config);
  MetricsEngine metrics(2);
  router.SetObservability(&metrics, nullptr);
  std::uint64_t received = 0;
  router.Attach(1, [&](MachineId, PayloadRef) { ++received; });

  router.Send(0, 1, Bytes{1});
  router.Send(0, 1, Bytes{2});
  std::thread drainer([&router] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    while (router.Drain(1, 8) == 0) {
      std::this_thread::yield();
    }
  });
  router.Send(0, 1, Bytes{3});  // blocks until the drainer makes room
  drainer.join();
  while (router.Drain(1, 8) != 0) {
  }
  EXPECT_EQ(received, 3u);
  EXPECT_GT(router.backpressure_hits(), 0u);
  EXPECT_GE(metrics.shard(0).Counter(CounterId::kNotifiesElided), 1u);
  EXPECT_EQ(metrics.shard(1).Counter(CounterId::kCondvarNotifies), 0u)
      << "nobody parked, so nobody should have been notified";
}

TEST_F(ParallelClusterTest, ShardRouterIdleWaitSpinsBeforeParkingAndCountsBoth) {
  ShardRouterConfig config;
  config.spin_min = 64;
  config.spin_max = 1024;
  ShardRouter router(1, config);
  MetricsEngine metrics(1);
  router.SetObservability(&metrics, nullptr);
  router.Attach(0, [](MachineId, PayloadRef) {});

  // Window expires empty: the full spin budget is spent, then a real park.
  router.IdleWait(0, std::chrono::milliseconds(1), [] { return false; });
  EXPECT_EQ(metrics.shard(0).Counter(CounterId::kSpinIters), 64u);
  EXPECT_EQ(metrics.shard(0).Counter(CounterId::kCondvarParks), 1u);
  EXPECT_EQ(metrics.shard(0).Counter(CounterId::kParksAvoided), 0u);

  // Work visible inside the window: the park (and its condvar round-trip)
  // is avoided.
  router.IdleWait(0, std::chrono::milliseconds(50), [] { return true; });
  EXPECT_EQ(metrics.shard(0).Counter(CounterId::kParksAvoided), 1u);
  EXPECT_EQ(metrics.shard(0).Counter(CounterId::kCondvarParks), 1u);
  EXPECT_FALSE(router.IsParked(0));
}

// ---------------------------------------------------------------------------
// ParallelCluster lifecycle: quiescence, Post, restart.
// ---------------------------------------------------------------------------

TEST_F(ParallelClusterTest, EmptyClusterIsImmediatelyQuiescent) {
  ParallelCluster cluster(ParallelClusterConfig{.machines = 4});
  EXPECT_TRUE(cluster.RunUntilQuiescent(std::chrono::milliseconds(2000)));
  cluster.Stop();
}

TEST_F(ParallelClusterTest, PostRunsOnShardThreadAndRestartWorks) {
  ParallelCluster cluster(ParallelClusterConfig{.machines = 2});
  auto sink = cluster.kernel(1).SpawnProcess("token_ring");
  ASSERT_TRUE(sink.ok());
  TokenRingConfig config;
  config.machines = 2;
  (void)cluster.kernel(1).FindProcess(sink->pid)->memory.WriteData(0, config.Encode());
  ASSERT_TRUE(cluster.RunUntilQuiescent());
  const std::int64_t before = cluster.TotalStat(stat::kMsgsDelivered);

  // Inject from shard 0's thread while the cluster is running.
  cluster.Post(0, [&cluster, addr = *sink] {
    cluster.kernel(0).SendFromKernel(addr, kTokenKick, MakeKickPayload(1, 0));
  });
  ASSERT_TRUE(cluster.RunUntilQuiescent());
  EXPECT_EQ(cluster.TotalStat(stat::kMsgsDelivered), before + 1);

  // Stop/Start: the same cluster keeps working across a full join cycle.
  cluster.Stop();
  cluster.Post(1, [&cluster, addr = *sink] {
    cluster.kernel(1).SendFromKernel(addr, kTokenKick, MakeKickPayload(1, 0));
  });
  ASSERT_TRUE(cluster.RunUntilQuiescent());
  EXPECT_EQ(cluster.TotalStat(stat::kMsgsDelivered), before + 2);
  cluster.Stop();
}

// The last shard to block declares quiescence, and a declaration can be
// older than the caller's newest Post.  Many short Post -> RunUntilQuiescent
// cycles on 4 shards, in both time modes: each cycle posts a closure that
// kicks one token around a ring spanning every shard (a chain of cross-shard
// messages), and every true return must already account for all of it.
// TSan runs this in CI.
TEST_F(ParallelClusterTest, QuiescenceAcrossPostCyclesStress) {
  constexpr int kMachines = 4;
  constexpr int kCycles = 200;
  constexpr std::uint32_t kHops = 6;
  for (const bool sync : {false, true}) {
    SCOPED_TRACE(sync ? "sync" : "free-running");
    ParallelClusterConfig config;
    config.machines = kMachines;
    config.sync.enabled = sync;
    ParallelCluster cluster(config);
    TokenRingSpec spec;
    spec.nodes_per_ring = kMachines;
    const std::vector<TokenRing> rings = BuildTokenRings(cluster, spec);
    ASSERT_EQ(rings.size(), 1u);
    ASSERT_TRUE(cluster.RunUntilQuiescent());
    std::int64_t expected = kMachines;  // one kAttachTarget per node
    ASSERT_EQ(cluster.TotalStat(stat::kMsgsDelivered), expected);

    std::atomic<int> ran{0};
    for (int cycle = 0; cycle < kCycles; ++cycle) {
      const auto m = static_cast<MachineId>(cycle % kMachines);
      const ProcessAddress node = rings[0][static_cast<std::size_t>((cycle + 1) % kMachines)];
      // Once, the cluster has just declared quiescence and a slow closure
      // follows: a RunUntilQuiescent that reused the old declaration would
      // return before the closure ran.
      const bool stale_check = cycle == kCycles / 2;
      if (stale_check) {
        ASSERT_TRUE(cluster.RunUntilQuiescent(std::chrono::milliseconds(0)))
            << "nothing was injected since the last declaration";
      }
      cluster.Post(m, [&cluster, &ran, m, node, stale_check] {
        if (stale_check) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        cluster.kernel(m).SendFromKernel(node, kTokenKick, MakeKickPayload(1, kHops));
        ran.fetch_add(1);
      });
      expected += 1 + (kHops + 1);  // the kick, then hops + 1 token receptions
      ASSERT_TRUE(cluster.RunUntilQuiescent()) << "cycle " << cycle;
      ASSERT_EQ(ran.load(), cycle + 1) << "cycle " << cycle;
      ASSERT_EQ(cluster.router().sent(), cluster.router().consumed()) << "cycle " << cycle;
      ASSERT_EQ(cluster.TotalStat(stat::kMsgsDelivered), expected) << "cycle " << cycle;
    }
    cluster.Stop();
  }
}

// ---------------------------------------------------------------------------
// Engine equivalence, parameterized over the Engine interface.
// ---------------------------------------------------------------------------

enum class EngineKind { kSequential, kParallel, kParallelSync };

const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kSequential:
      return "Sequential";
    case EngineKind::kParallel:
      return "Parallel";
    case EngineKind::kParallelSync:
      return "ParallelSync";
  }
  return "?";
}

// One factory for all three engine variants.  `parallel` carries
// variant-specific knobs (mailbox capacity, link latencies) and is ignored by
// the sequential engine.
std::unique_ptr<Engine> MakeEngine(EngineKind kind, int machines,
                                   ParallelClusterConfig parallel = {}) {
  if (kind == EngineKind::kSequential) {
    return std::make_unique<Cluster>(ClusterConfig{.machines = machines});
  }
  parallel.machines = machines;
  parallel.sync.enabled = kind == EngineKind::kParallelSync;
  parallel.settle_timeout = std::chrono::milliseconds(60000);
  return std::make_unique<ParallelCluster>(parallel);
}

// The link a ring node holds to its successor, or nullptr.
const Link* LinkToNext(ProcessRecord* record, const ProcessId& next_pid) {
  if (record == nullptr) {
    return nullptr;
  }
  for (LinkId slot = 0; slot < 64; ++slot) {
    const Link* link = record->links.Get(slot);
    if (link != nullptr && link->address.pid == next_pid) {
      return link;
    }
  }
  return nullptr;
}

struct RingEndState {
  std::map<std::uint64_t, MachineId> host;         // keyed by pid key
  std::map<std::uint64_t, MachineId> link_target;  // node -> where its next-link points
  std::map<std::uint64_t, std::uint32_t> migrations;  // node -> chained hops done
  std::int64_t delivered = 0;
  std::int64_t bounced = 0;
  std::int64_t tokens_seen = 0;  // program-level exactly-once count
};

std::uint64_t PidKey(const ProcessId& pid) {
  return (static_cast<std::uint64_t>(pid.creating_machine) << 32) | pid.local_id;
}

RingEndState CaptureEndState(Engine& engine, const std::vector<TokenRing>& rings) {
  RingEndState state;
  for (const TokenRing& ring : rings) {
    for (std::size_t j = 0; j < ring.size(); ++j) {
      const ProcessId& pid = ring[j].pid;
      const ProcessId& next_pid = ring[(j + 1) % ring.size()].pid;
      state.host[PidKey(pid)] = engine.HostOf(pid);
      ProcessRecord* record = engine.FindProcessAnywhere(pid);
      const Link* link = LinkToNext(record, next_pid);
      state.link_target[PidKey(pid)] =
          link != nullptr ? link->address.last_known_machine : kNoMachine;
      if (record != nullptr) {
        if (auto* program = dynamic_cast<TokenRingProgram*>(record->program.get())) {
          state.tokens_seen += static_cast<std::int64_t>(program->tokens_seen());
          state.migrations[PidKey(pid)] = program->migrations_started();
        }
      }
    }
  }
  state.delivered = engine.TotalStat(stat::kMsgsDelivered);
  state.bounced = engine.TotalStat(stat::kMsgsBounced);
  return state;
}

// The one workload runner for every engine: stage, kick, settle, probe.  The
// probe rounds re-kick every node through Execute(0) so stale links advance a
// forwarding hop per round on all engines alike.
RingEndState RunWorkload(Engine& engine, const TokenRingSpec& spec, int probe_rounds,
                         std::vector<TokenRing>* rings_out = nullptr) {
  std::vector<TokenRing> rings = BuildTokenRings(engine, spec);
  EXPECT_FALSE(rings.empty());
  KickTokenRings(engine, rings, spec.tokens_per_node, spec.hops_per_token);
  EXPECT_TRUE(engine.RunUntilSettled(20'000'000).settled) << "workload did not settle";
  for (int round = 0; round < probe_rounds; ++round) {
    Engine* e = &engine;
    engine.Execute(0, [e, &rings, payload = MakeKickPayload(1, 0)] {
      for (const TokenRing& ring : rings) {
        for (const ProcessAddress& node : ring) {
          e->kernel(0).SendFromKernel(node, kTokenKick, payload);
        }
      }
    });
    EXPECT_TRUE(engine.RunUntilSettled(20'000'000).settled) << "probe round did not settle";
  }
  RingEndState state = CaptureEndState(engine, rings);
  if (rings_out != nullptr) {
    *rings_out = std::move(rings);
  }
  return state;
}

class EngineEquivalenceTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  void SetUp() override { RegisterWorkloadPrograms(); }
};

INSTANTIATE_TEST_SUITE_P(Engines, EngineEquivalenceTest,
                         ::testing::Values(EngineKind::kSequential, EngineKind::kParallel,
                                           EngineKind::kParallelSync),
                         [](const ::testing::TestParamInfo<EngineKind>& info) {
                           return std::string(EngineKindName(info.param));
                         });

TEST_P(EngineEquivalenceTest, StaticRingsMatchGroundTruth) {
  const int machines = 4;
  TokenRingSpec spec;
  spec.rings = 4;
  spec.nodes_per_ring = 6;
  spec.tokens_per_node = 2;
  spec.hops_per_token = 50;

  std::unique_ptr<Engine> engine = MakeEngine(GetParam(), machines);
  std::vector<TokenRing> rings;
  const RingEndState state = RunWorkload(*engine, spec, /*probe_rounds=*/0, &rings);

  EXPECT_EQ(state.delivered, ExpectedRingDeliveries(spec));
  EXPECT_EQ(state.bounced, 0);
  // With no migrations the ground truth is the spawn layout itself: every
  // node stays home and every next-link still names the successor's spawn
  // machine.
  for (const TokenRing& ring : rings) {
    for (std::size_t j = 0; j < ring.size(); ++j) {
      const ProcessAddress& node = ring[j];
      const ProcessAddress& next = ring[(j + 1) % ring.size()];
      EXPECT_EQ(state.host.at(PidKey(node.pid)), node.last_known_machine);
      EXPECT_EQ(state.link_target.at(PidKey(node.pid)), next.last_known_machine);
    }
  }
}

TEST_P(EngineEquivalenceTest, ChainedMigrationsAndStaleLinksMatchGroundTruth) {
  const int machines = 4;
  TokenRingSpec spec;
  spec.rings = 3;
  spec.nodes_per_ring = 4;
  spec.tokens_per_node = 2;
  spec.hops_per_token = 40;
  spec.migrate_count = 3;
  spec.migrate_after_tokens = 2;
  // Each probe round advances a stale link at least one forwarding hop, so
  // migrate_count + 1 rounds guarantee convergence on every engine.
  const int probe_rounds = static_cast<int>(spec.migrate_count) + 1;

  std::unique_ptr<Engine> engine = MakeEngine(GetParam(), machines);
  std::vector<TokenRing> rings;
  const RingEndState state = RunWorkload(*engine, spec, probe_rounds, &rings);

  // msgs_delivered undercounts by a timing-dependent amount under migration
  // (held messages are consumed without a bump), so the exactly-once check
  // uses the program-level reception counter, which every engine must match.
  EXPECT_EQ(state.tokens_seen, ExpectedTokenReceptions(spec, probe_rounds));
  EXPECT_EQ(state.bounced, 0);

  // Ground truth: every node chained exactly migrate_count hops of +1 from
  // its spawn machine, and after the probe rounds each node's next-link has
  // converged on the successor's true host.
  for (const TokenRing& ring : rings) {
    for (std::size_t j = 0; j < ring.size(); ++j) {
      const ProcessAddress& node = ring[j];
      const ProcessAddress& next = ring[(j + 1) % ring.size()];
      const auto want_host = static_cast<MachineId>(
          (node.last_known_machine + spec.migrate_count) % machines);
      const auto want_target = static_cast<MachineId>(
          (next.last_known_machine + spec.migrate_count) % machines);
      EXPECT_EQ(state.host.at(PidKey(node.pid)), want_host) << "host diverged";
      EXPECT_EQ(state.migrations.at(PidKey(node.pid)), spec.migrate_count);
      EXPECT_EQ(state.link_target.at(PidKey(node.pid)), want_target);
    }
  }
}

// The pairwise check the suite is named for: all three engines must land on
// byte-identical location/link/counter end states for the same workload.
TEST_F(ParallelClusterTest, AllEnginesConvergeToIdenticalEndState) {
  const int machines = 4;
  TokenRingSpec spec;
  spec.rings = 3;
  spec.nodes_per_ring = 4;
  spec.tokens_per_node = 2;
  spec.hops_per_token = 40;
  spec.migrate_count = 2;
  spec.migrate_after_tokens = 2;
  const int probe_rounds = static_cast<int>(spec.migrate_count) + 1;

  RingEndState baseline;
  bool have_baseline = false;
  for (const EngineKind kind :
       {EngineKind::kSequential, EngineKind::kParallel, EngineKind::kParallelSync}) {
    SCOPED_TRACE(EngineKindName(kind));
    std::unique_ptr<Engine> engine = MakeEngine(kind, machines);
    const RingEndState state = RunWorkload(*engine, spec, probe_rounds);
    if (!have_baseline) {
      baseline = state;
      have_baseline = true;
      continue;
    }
    EXPECT_EQ(state.host, baseline.host);
    EXPECT_EQ(state.link_target, baseline.link_target);
    EXPECT_EQ(state.migrations, baseline.migrations);
    EXPECT_EQ(state.tokens_seen, baseline.tokens_seen);
    EXPECT_EQ(state.bounced, baseline.bounced);
  }
}

// Cross-shard forwarding hammered mid-migration: many rings, every node
// migrating early, while tokens from every other node are still addressed to
// the pre-migration machines.  TSan runs this in CI; the assertions double as
// an exactly-once check under real concurrency.
TEST_F(ParallelClusterTest, StressForwardingDuringMigrationStorm) {
  const int machines = 8;
  TokenRingSpec spec;
  spec.rings = 8;
  spec.nodes_per_ring = 8;
  spec.tokens_per_node = 2;
  spec.hops_per_token = 40;
  spec.migrate_count = 2;
  spec.migrate_after_tokens = 1;  // first token triggers the chain: maximum overlap

  std::unique_ptr<Engine> engine = MakeEngine(EngineKind::kParallel, machines);
  const RingEndState par = RunWorkload(*engine, spec, /*probe_rounds=*/0);
  EXPECT_EQ(par.tokens_seen, ExpectedTokenReceptions(spec));
  EXPECT_EQ(par.bounced, 0);
  for (const auto& [pid, host] : par.host) {
    EXPECT_NE(host, kNoMachine) << "a process vanished mid-storm";
  }
  for (const auto& [pid, count] : par.migrations) {
    EXPECT_EQ(count, spec.migrate_count) << "a migration chain stalled";
  }
}

// The same storm with migration deadlines armed, which forces conservative
// sync on: the acceptance bar for enabling wall-clock policies under the
// parallel engine.  Healthy migrations under load must never trip a watchdog,
// and the sync layer must hold exactly-once.  TSan runs this in CI.
TEST_F(ParallelClusterTest, StressMigrationStormWithDeadlinesArmed) {
  const int machines = 8;
  TokenRingSpec spec;
  spec.rings = 8;
  spec.nodes_per_ring = 8;
  spec.tokens_per_node = 2;
  spec.hops_per_token = 40;
  spec.migrate_count = 2;
  spec.migrate_after_tokens = 1;

  ParallelClusterConfig config;
  config.kernel.migration_deadlines.offer_accept_us = 2'000'000;
  config.kernel.migration_deadlines.transfer_progress_us = 2'000'000;
  config.kernel.migration_deadlines.handoff_us = 2'000'000;
  std::unique_ptr<Engine> engine = MakeEngine(EngineKind::kParallel, machines, config);
  const RingEndState par = RunWorkload(*engine, spec, /*probe_rounds=*/0);
  EXPECT_EQ(par.tokens_seen, ExpectedTokenReceptions(spec));
  EXPECT_EQ(par.bounced, 0);
  EXPECT_EQ(engine->TotalStat(stat::kMigrationsTimedOut), 0)
      << "a deadline fired for a healthy migration under sync";
  for (const auto& [pid, count] : par.migrations) {
    EXPECT_EQ(count, spec.migrate_count) << "a migration chain stalled";
  }
}

// The shrink-mid-storm proof for wide windows: migration-free traffic runs
// first, so wide windows open -- then the storm starts.  The moment a shard's
// kernel holds a migration offer it publishes tight, and the closing shard
// falls back to windows that span only the link latency.  Frames
// timestamped inside the old wide windows must still land exactly once, no
// healthy migration may trip its watchdog, and any clamp must be accounted as
// wide-era residue, never as a conservative-sync violation.  TSan runs this
// in CI.
TEST_F(ParallelClusterTest, StressLookaheadShrinkMidStormKeepsExactlyOnce) {
  const int machines = 8;
  TokenRingSpec spec;
  spec.rings = 8;
  spec.nodes_per_ring = 8;
  spec.tokens_per_node = 2;
  spec.hops_per_token = 40;
  spec.migrate_count = 2;
  spec.migrate_after_tokens = 4;  // a wide era runs before the first offer leaves

  ParallelClusterConfig config;
  config.kernel.migration_deadlines.offer_accept_us = 2'000'000;
  config.kernel.migration_deadlines.transfer_progress_us = 2'000'000;
  config.kernel.migration_deadlines.handoff_us = 2'000'000;
  std::unique_ptr<Engine> engine = MakeEngine(EngineKind::kParallelSync, machines, config);
  const RingEndState par = RunWorkload(*engine, spec, /*probe_rounds=*/0);
  EXPECT_EQ(par.tokens_seen, ExpectedTokenReceptions(spec));
  EXPECT_EQ(par.bounced, 0);
  EXPECT_EQ(engine->TotalStat(stat::kMigrationsTimedOut), 0)
      << "a deadline fired for a healthy migration under adaptive sync";
  for (const auto& [pid, count] : par.migrations) {
    EXPECT_EQ(count, spec.migrate_count) << "a migration chain stalled";
  }

  MetricsEngine* metrics = engine->metrics();
  ASSERT_NE(metrics, nullptr);
  std::uint64_t wide_windows = 0;
  std::uint64_t sync_clamped = 0;
  // All slots, including the window slot (the wide-window counter lives there).
  for (int m = 0; m < metrics->shards(); ++m) {
    wide_windows += metrics->shard(m).Counter(CounterId::kWideWindowsOpened);
    sync_clamped += metrics->shard(m).Counter(CounterId::kSyncFramesClamped);
  }
  EXPECT_GT(wide_windows, 0u) << "the pre-storm era should have widened windows";
  EXPECT_EQ(sync_clamped, 0u)
      << "an ever-wide run must route clamped arrivals to wide_frames_clamped";
}

// A deliberately tiny mailbox forces sustained backpressure (and possibly the
// cyclic-full escape hatch) through the full kernel path; delivery accounting
// must stay exact.
TEST_F(ParallelClusterTest, TinyMailboxBackpressureKeepsExactlyOnce) {
  const int machines = 2;
  TokenRingSpec spec;
  spec.rings = 2;
  spec.nodes_per_ring = 4;
  spec.tokens_per_node = 4;
  spec.hops_per_token = 200;

  ParallelClusterConfig config;
  config.router.mailbox_capacity = 8;
  std::unique_ptr<Engine> engine = MakeEngine(EngineKind::kParallel, machines, config);
  const RingEndState par = RunWorkload(*engine, spec, /*probe_rounds=*/0);
  EXPECT_EQ(par.delivered, ExpectedRingDeliveries(spec));
  EXPECT_EQ(par.bounced, 0);
}

// Default-on batching and pooling must leave fingerprints in the metrics
// slabs, and -- the LBTS safety half of the batching contract -- a batched
// frame's per-frame timestamp must never admit a delivery into a shard's
// virtual past (the clamp counter is the tripwire for that).
TEST_F(ParallelClusterTest, BatchedSyncRunNeverClampsAndExportsHotPathCounters) {
  const int machines = 4;
  TokenRingSpec spec;
  spec.rings = 2;
  spec.nodes_per_ring = 4;
  spec.tokens_per_node = 4;
  spec.hops_per_token = 100;

  std::unique_ptr<Engine> engine = MakeEngine(EngineKind::kParallelSync, machines);
  const RingEndState state = RunWorkload(*engine, spec, /*probe_rounds=*/0);
  EXPECT_EQ(state.tokens_seen, ExpectedTokenReceptions(spec));

  MetricsEngine* metrics = engine->metrics();
  ASSERT_NE(metrics, nullptr);
  std::uint64_t clamped = 0;
  std::uint64_t spin_iters = 0;
  std::uint64_t pool_traffic = 0;
  HistogramSnapshot batch;
  for (int m = 0; m < machines; ++m) {
    clamped += metrics->shard(m).Counter(CounterId::kSyncFramesClamped);
    spin_iters += metrics->shard(m).Counter(CounterId::kSpinIters);
    pool_traffic += metrics->shard(m).Counter(CounterId::kPoolHits) +
                    metrics->shard(m).Counter(CounterId::kPoolMisses);
    batch.Merge(metrics->shard(m).Histogram(HistogramId::kBatchSize));
  }
  EXPECT_EQ(clamped, 0u) << "a batched frame admitted a delivery into the past";
  EXPECT_GT(batch.count, 0u) << "batching default-on must observe batch sizes";
  EXPECT_GE(batch.sum, batch.count) << "every published batch carries at least one frame";
  EXPECT_GT(pool_traffic, 0u) << "payload pooling default-on must count acquisitions";
  // Spin-then-park is load-dependent (a loaded 1-core runner may never catch
  // an empty window), so only sanity-check the counter is readable.
  (void)spin_iters;
}

// Slab counters are written by one thread with a plain load + store; the
// one foreign write, a waker bumping the target's condvar_notifies, must stay
// exact when many threads wake the same shards at once.  An idle running
// cluster: its shards are parked and issue no wakes of their own.
TEST_F(ParallelClusterTest, ForeignWakeStressCountsNotifiesExactly) {
  constexpr int kMachines = 2;
  constexpr int kWakers = 4;
  constexpr int kWakesPerShard = 5000;
  ParallelCluster cluster(ParallelClusterConfig{.machines = kMachines});
  ASSERT_TRUE(cluster.RunUntilQuiescent());
  MetricsEngine* metrics = cluster.metrics();
  ASSERT_NE(metrics, nullptr);
  const auto notifies = [metrics](int m) {
    return metrics->shard(m).Counter(CounterId::kCondvarNotifies);
  };
  std::vector<std::uint64_t> before;
  for (int m = 0; m < kMachines; ++m) {
    before.push_back(notifies(m));
  }
  std::vector<std::thread> wakers;
  for (int t = 0; t < kWakers; ++t) {
    wakers.emplace_back([&cluster] {
      for (int i = 0; i < kWakesPerShard; ++i) {
        for (int m = 0; m < kMachines; ++m) {
          cluster.router().Wake(static_cast<MachineId>(m));
        }
      }
    });
  }
  for (std::thread& t : wakers) {
    t.join();
  }
  for (int m = 0; m < kMachines; ++m) {
    EXPECT_EQ(notifies(m) - before[static_cast<std::size_t>(m)],
              static_cast<std::uint64_t>(kWakers) * kWakesPerShard)
        << "shard " << m;
  }
  cluster.Stop();
}

// Each shard counts its own drains and its own published batches into its
// slab; summed over the slabs they must equal the router's flow slots, which
// count the same frames independently.
TEST_F(ParallelClusterTest, SyncTokenRingSlabCountsMatchRouterFlow) {
  constexpr int kMachines = 3;
  ParallelClusterConfig config;
  config.machines = kMachines;
  config.sync.enabled = true;
  ParallelCluster cluster(config);
  TokenRingSpec spec;
  spec.rings = 3;
  spec.nodes_per_ring = 6;
  spec.tokens_per_node = 2;
  spec.hops_per_token = 60;
  const std::vector<TokenRing> rings = BuildTokenRings(cluster, spec);
  ASSERT_EQ(rings.size(), 3u);
  KickTokenRings(cluster, rings, spec.tokens_per_node, spec.hops_per_token);
  ASSERT_TRUE(cluster.RunUntilQuiescent());
  cluster.Stop();

  MetricsEngine* metrics = cluster.metrics();
  ASSERT_NE(metrics, nullptr);
  std::uint64_t drained = 0;
  HistogramSnapshot batches;
  for (int m = 0; m < metrics->shards(); ++m) {
    drained += metrics->shard(m).Counter(CounterId::kMsgsDrained);
    batches.Merge(metrics->shard(m).Histogram(HistogramId::kBatchSize));
  }
  EXPECT_GT(cluster.router().consumed(), 0u);
  EXPECT_EQ(drained, cluster.router().consumed());
  EXPECT_EQ(batches.sum, cluster.router().sent());
}

}  // namespace
}  // namespace demos
