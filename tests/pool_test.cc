// Tests for the shard-local free-list pools (src/base/pool.h) and their
// integration with PayloadRef / ByteWriter (src/base/bytes.h).
//
// The pool is process-global, thread-local state; every test starts from
// PayloadBufferPool::DrainForTest() so hit/miss deltas are deterministic, and
// tests that shrink PayloadBufferPool::limits() restore the defaults before
// returning (the caps are plain members shared by the whole process).

#include "src/base/pool.h"

#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/bytes.h"

namespace demos {
namespace {

// RAII: shrink the pool caps for one test, restore defaults on exit.
class ScopedPoolLimits {
 public:
  explicit ScopedPoolLimits(PayloadBufferPool::Limits next)
      : saved_(PayloadBufferPool::limits()) {
    PayloadBufferPool::limits() = next;
  }
  ~ScopedPoolLimits() { PayloadBufferPool::limits() = saved_; }

 private:
  PayloadBufferPool::Limits saved_;
};

PoolThreadStats StatsDelta(const PoolThreadStats& before) {
  PoolThreadStats now = PayloadBufferPool::ThreadStats();
  return PoolThreadStats{now.hits - before.hits, now.misses - before.misses};
}

TEST(PayloadBufferPoolTest, FirstAcquireMissesThenRecycledNodeHits) {
  PayloadBufferPool::DrainForTest();
  PoolThreadStats base = PayloadBufferPool::ThreadStats();

  {
    PayloadRef first{Bytes{1, 2, 3}};
    EXPECT_EQ(first.size(), 3u);
  }  // releases: node + capacity land in this thread's free-lists

  PoolThreadStats after_first = StatsDelta(base);
  EXPECT_EQ(after_first.hits, 0u);
  EXPECT_EQ(after_first.misses, 1u) << "cold pool must fall back to the heap";

  {
    PayloadRef second{Bytes{4, 5}};
    EXPECT_EQ(second.size(), 2u);
    EXPECT_EQ(second[0], 4u);
  }

  PoolThreadStats after_second = StatsDelta(base);
  EXPECT_EQ(after_second.hits, 1u) << "recycled node object must be reused";
  EXPECT_EQ(after_second.misses, 1u);

  PayloadBufferPool::DrainForTest();
}

TEST(PayloadBufferPoolTest, ReleasedCapacityIsSalvagedForByteWriter) {
  PayloadBufferPool::DrainForTest();

  {
    ByteWriter w;  // cold: AcquireBytes misses
    for (int i = 0; i < 100; ++i) {
      w.U64(static_cast<std::uint64_t>(i));
    }
    PayloadRef ref{w.Take()};
    EXPECT_EQ(ref.size(), 800u);
  }  // node released; its 800-byte capacity goes to the buffer free-list

  PoolThreadStats base = PayloadBufferPool::ThreadStats();
  Bytes recycled = PayloadBufferPool::AcquireBytes(800);
  PoolThreadStats delta = StatsDelta(base);
  EXPECT_EQ(delta.hits, 1u);
  EXPECT_EQ(delta.misses, 0u);
  EXPECT_TRUE(recycled.empty()) << "salvaged buffers come back cleared";
  EXPECT_GE(recycled.capacity(), 800u) << "…but keep their heap capacity";

  PayloadBufferPool::DrainForTest();
}

// Buffers are served by the size the caller asks for: a recycled buffer too
// small for the request is never handed out (and grown on the heap behind a
// counted hit); it waits for a request it can hold.
TEST(PayloadBufferPoolTest, SizedAcquireServesOnlyBuffersThatHoldTheRequest) {
  PayloadBufferPool::DrainForTest();
  {
    Bytes bytes = PayloadBufferPool::AcquireBytes(40);  // cold: 64-byte class
    bytes.assign(40, 0x11);
    PayloadRef ref{std::move(bytes)};
  }  // its 64-byte capacity goes back to the pool

  PoolThreadStats base = PayloadBufferPool::ThreadStats();
  Bytes big = PayloadBufferPool::AcquireBytes(100);
  PoolThreadStats delta = StatsDelta(base);
  EXPECT_EQ(delta.hits, 0u) << "a 64-byte buffer cannot serve 100 bytes";
  EXPECT_EQ(delta.misses, 1u);
  EXPECT_GE(big.capacity(), 100u);

  Bytes fits = PayloadBufferPool::AcquireBytes(50);
  delta = StatsDelta(base);
  EXPECT_EQ(delta.hits, 1u) << "the cached 64-byte buffer serves a 50-byte request";
  EXPECT_GE(fits.capacity(), 50u);

  PayloadBufferPool::DrainForTest();
}

TEST(PayloadBufferPoolTest, OversizedCapacityIsNotCached) {
  PayloadBufferPool::DrainForTest();
  ScopedPoolLimits limits([] {
    PayloadBufferPool::Limits lim;
    lim.max_buffer_bytes = 64;  // anything bigger dies instead of being cached
    return lim;
  }());

  { PayloadRef big{Bytes(1024, 0xAB)}; }

  PoolThreadStats base = PayloadBufferPool::ThreadStats();
  Bytes out = PayloadBufferPool::AcquireBytes(1024);
  PoolThreadStats delta = StatsDelta(base);
  EXPECT_EQ(delta.hits, 0u) << "1 KiB capacity must not be salvaged past a 64 B cap";
  EXPECT_EQ(delta.misses, 1u);
  EXPECT_EQ(out.capacity(), 1024u) << "a miss reserves a fresh buffer of the request's class";

  PayloadBufferPool::DrainForTest();
}

TEST(PayloadBufferPoolTest, ExhaustedPoolFallsBackToHeapWithoutLeaking) {
  PayloadBufferPool::DrainForTest();
  ScopedPoolLimits limits([] {
    PayloadBufferPool::Limits lim;
    lim.local_nodes = 0;    // nothing may be cached locally…
    lim.local_buffers = 0;
    lim.global_entries = 0;  // …or globally: every release must free
    return lim;
  }());

  PoolThreadStats base = PayloadBufferPool::ThreadStats();
  // Churn refs with the pool fully disabled.  Every acquire is a heap miss
  // and every release a plain delete; ASan/LSan (when enabled) verifies the
  // fallback path frees what it allocates.
  for (int i = 0; i < 64; ++i) {
    PayloadRef ref{Bytes{static_cast<std::uint8_t>(i)}};
    PayloadRef copy = ref;
    EXPECT_TRUE(copy.SharesBufferWith(ref));
  }
  PoolThreadStats delta = StatsDelta(base);
  EXPECT_EQ(delta.hits, 0u);
  EXPECT_EQ(delta.misses, 64u);

  PayloadBufferPool::DrainForTest();
}

TEST(PayloadBufferPoolTest, LocalOverflowSpillsToGlobalFallback) {
  PayloadBufferPool::DrainForTest();
  ScopedPoolLimits limits([] {
    PayloadBufferPool::Limits lim;
    lim.local_nodes = 1;  // second released node must go to the global list
    lim.local_buffers = 1;
    return lim;
  }());

  std::vector<PayloadRef> refs;
  for (int i = 0; i < 3; ++i) {
    refs.emplace_back(Bytes{static_cast<std::uint8_t>(i)});
  }
  refs.clear();  // releases 3 nodes: 1 local, 2 global

  PoolThreadStats base = PayloadBufferPool::ThreadStats();
  std::vector<PayloadRef> again;
  for (int i = 0; i < 3; ++i) {
    again.emplace_back(Bytes{static_cast<std::uint8_t>(i)});
  }
  PoolThreadStats delta = StatsDelta(base);
  EXPECT_EQ(delta.hits, 3u) << "local pop + two global refills must all hit";
  EXPECT_EQ(delta.misses, 0u);

  again.clear();
  PayloadBufferPool::DrainForTest();
}

TEST(PayloadBufferPoolTest, CrossThreadReleaseDonatesNodesAtThreadExit) {
  PayloadBufferPool::DrainForTest();

  // Migration-handoff shape: payloads built on this thread, released on
  // another (the destination shard), whose cache donates to the global
  // fallback when the thread exits.
  std::vector<PayloadRef> outbound;
  for (int i = 0; i < 4; ++i) {
    outbound.emplace_back(Bytes{static_cast<std::uint8_t>(i), 0xFF});
  }
  std::thread consumer([moved = std::move(outbound)]() mutable {
    for (PayloadRef& ref : moved) {
      EXPECT_EQ(ref.size(), 2u);
    }
    moved.clear();  // releases land in the consumer thread's local cache
  });
  consumer.join();  // cache destructor donates the nodes to the global list

  PoolThreadStats base = PayloadBufferPool::ThreadStats();
  std::vector<PayloadRef> reused;
  for (int i = 0; i < 4; ++i) {
    reused.emplace_back(Bytes{static_cast<std::uint8_t>(i)});
  }
  PoolThreadStats delta = StatsDelta(base);
  EXPECT_EQ(delta.hits, 4u)
      << "nodes freed on a dead thread must refill via the global fallback";
  EXPECT_EQ(delta.misses, 0u);

  reused.clear();
  PayloadBufferPool::DrainForTest();
}

TEST(PayloadBufferPoolTest, CopyOnWriteClonesThroughThePool) {
  PayloadBufferPool::DrainForTest();

  PayloadRef original{Bytes{10, 20, 30}};
  PayloadRef alias = original;
  ASSERT_TRUE(alias.SharesBufferWith(original));

  PoolThreadStats base = PayloadBufferPool::ThreadStats();
  std::uint8_t* p = alias.MutableData();  // refs > 1: must clone
  ASSERT_NE(p, nullptr);
  p[0] = 99;

  EXPECT_FALSE(alias.SharesBufferWith(original));
  EXPECT_EQ(alias[0], 99u);
  EXPECT_EQ(original[0], 10u) << "other refs keep seeing the old bytes";
  // The clone went through AcquireNode (pool-accounted), not bare new.
  PoolThreadStats delta = StatsDelta(base);
  EXPECT_EQ(delta.hits + delta.misses, 1u);

  PayloadBufferPool::DrainForTest();
}

TEST(OwnedFreeListTest, RecyclesUpToCapAndReportsHits) {
  OwnedFreeList<std::vector<int>> list(/*cap=*/2);

  bool hit = true;
  std::unique_ptr<std::vector<int>> a = list.Acquire(&hit);
  EXPECT_FALSE(hit) << "empty list must allocate";
  a->assign({1, 2, 3});

  std::vector<int>* raw = a.get();
  list.Release(std::move(a));
  EXPECT_EQ(list.size(), 1u);

  std::unique_ptr<std::vector<int>> b = list.Acquire(&hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(b.get(), raw) << "recycled object comes back as-is";
  EXPECT_EQ(b->size(), 3u) << "caller owns re-initialization, not the pool";

  // Cap enforcement: the third release is dropped (freed), not cached.
  list.Release(std::make_unique<std::vector<int>>());
  list.Release(std::make_unique<std::vector<int>>());
  list.Release(std::move(b));
  EXPECT_EQ(list.size(), 2u);
}

}  // namespace
}  // namespace demos
