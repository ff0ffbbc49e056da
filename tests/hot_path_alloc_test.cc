// Pins "no heap allocation per delivered message": once the pools and rings
// are warm, the message path -- encode, network event, decode, route, queue,
// dispatch, handler -- must not touch the heap.
//
// Every global operator new in this binary is counted (all sizes, arrays and
// over-aligned types), so a window of steady-state traffic can assert a count
// of zero.  Sanitizer builds replace the allocator themselves; this binary
// replaces only operator new/delete, which ASan tolerates.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/kernel/cluster.h"
#include "src/run/parallel_cluster.h"
#include "src/workload/programs.h"
#include "src/workload/token_ring_harness.h"

namespace {
std::atomic<std::uint64_t> g_heap_allocations{0};

void* CountedAlloc(std::size_t size, std::size_t align) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  size = size == 0 ? 1 : size;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size, 0); }
void* operator new[](std::size_t size) { return CountedAlloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
// GCC flags free() on operator-new memory once it inlines the pair; here both
// halves are malloc/free by construction.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace demos {
namespace {

constexpr std::int64_t kWarmupDeliveries = 10'000;
constexpr std::int64_t kMeasuredDeliveries = 12'000;

std::int64_t Delivered(Cluster& cluster) {
  std::int64_t total = 0;
  for (int m = 0; m < cluster.size(); ++m) {
    total += cluster.kernel(static_cast<MachineId>(m)).stats().Get(StatId::kMsgsDelivered);
  }
  return total;
}

// Step `cluster` until `target` deliveries have happened; false if it went
// idle first.
bool StepUntilDelivered(Cluster& cluster, std::int64_t target) {
  while (Delivered(cluster) < target) {
    if (!cluster.queue().Step()) {
      return false;
    }
  }
  return true;
}

// Warm up, then count heap allocations over the next kMeasuredDeliveries.
std::uint64_t AllocationsOverSteadyState(Cluster& cluster) {
  EXPECT_TRUE(StepUntilDelivered(cluster, Delivered(cluster) + kWarmupDeliveries));
  const std::uint64_t before = g_heap_allocations.load();
  const std::int64_t start = Delivered(cluster);
  EXPECT_TRUE(StepUntilDelivered(cluster, start + kMeasuredDeliveries));
  return g_heap_allocations.load() - before;
}

TEST(HotPathAllocTest, SequentialTokenRingDeliversWithoutHeapAllocation) {
  RegisterWorkloadPrograms();
  Cluster cluster(ClusterConfig{.machines = 3});
  TokenRingSpec spec;
  spec.rings = 2;
  spec.nodes_per_ring = 3;
  spec.tokens_per_node = 2;
  spec.hops_per_token = 10'000;
  const std::vector<TokenRing> rings = BuildTokenRings(cluster, spec);
  ASSERT_EQ(rings.size(), 2u);
  cluster.RunUntilIdle();
  KickTokenRings(cluster, rings, spec.tokens_per_node, spec.hops_per_token);

  EXPECT_EQ(AllocationsOverSteadyState(cluster), 0u);
  cluster.RunUntilIdle();
  EXPECT_EQ(Delivered(cluster), ExpectedRingDeliveries(spec));
}

// Closed-loop client for the rpc_server exchange: each response is re-sent
// as the next request with a fresh reply link, so the client itself adds no
// allocation and the count isolates the kernel path and rpc_server.
class EchoRpcClient final : public Program {
 public:
  void OnMessage(Context& ctx, const Message& msg) override {
    if (msg.type == kAttachTarget) {
      server_ = ctx.AddLink(msg.carried_links[0]);
    } else if (msg.type != kRpcResponse) {
      return;
    }
    (void)ctx.Send(server_, kRpcRequest, msg.payload, {ctx.MakeLink(kLinkReply)});
  }

 private:
  LinkId server_ = kNoLink;
};

TEST(HotPathAllocTest, RpcServerExchangeWithReplyLinksDeliversWithoutHeapAllocation) {
  RegisterWorkloadPrograms();
  ProgramRegistry::Instance().Register("echo_rpc_client",
                                       [] { return std::make_unique<EchoRpcClient>(); });
  Cluster cluster(ClusterConfig{.machines = 2});
  auto server = cluster.kernel(1).SpawnProcess("rpc_server");
  auto client = cluster.kernel(0).SpawnProcess("echo_rpc_client");
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE(client.ok());
  cluster.RunUntilIdle();
  Link to_server;
  to_server.address = *server;
  // The first request carries a 24-byte payload; every later one reuses it.
  cluster.kernel(0).SendFromKernel(*client, kAttachTarget, Bytes(24, 0x5A), {to_server});

  EXPECT_EQ(AllocationsOverSteadyState(cluster), 0u);
}

// Two shards, warm: after one full token round has sized every pool, ring
// and batch, a later round allocates only its fixed per-round cost (the Post
// closures that kick it, the quiescence handshake), never per delivered
// message.
TEST(HotPathAllocTest, TwoShardParallelTokenRingDeliversWithoutHeapAllocation) {
  RegisterWorkloadPrograms();
  ParallelCluster cluster(ParallelClusterConfig{.machines = 2});
  TokenRingSpec spec;
  spec.rings = 2;
  spec.nodes_per_ring = 4;
  spec.tokens_per_node = 2;
  spec.hops_per_token = 2'000;
  const std::vector<TokenRing> rings = BuildTokenRings(cluster, spec);
  ASSERT_EQ(rings.size(), 2u);
  KickTokenRings(cluster, rings, spec.tokens_per_node, spec.hops_per_token);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilQuiescent());

  const auto kick_round = [&](std::uint32_t hops) {
    const std::uint64_t before = g_heap_allocations.load();
    for (const TokenRing& ring : rings) {
      for (const ProcessAddress& node : ring) {
        cluster.Post(node.last_known_machine, [&cluster, node, hops] {
          cluster.kernel(node.last_known_machine)
              .SendFromKernel(node, kTokenKick, MakeKickPayload(2, hops));
        });
      }
    }
    EXPECT_TRUE(cluster.RunUntilQuiescent());
    return g_heap_allocations.load() - before;
  };
  // 16 tokens: about 1,600 deliveries in the short round, 64,000 in the
  // long one.  Any per-message allocation would add tens of thousands; what
  // thread timing varies between rounds (which shard first outgrows a spill
  // queue or drains a batch into its pool) is a handful.
  const std::uint64_t short_round = kick_round(100);
  const std::uint64_t long_round = kick_round(4'000);
  EXPECT_LE(long_round, short_round + 32)
      << "short round " << short_round << ", long round " << long_round;
  cluster.Stop();
}

}  // namespace
}  // namespace demos
