// Unit tests for src/base: ids, status, bytes, rng, stats.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/ids.h"
#include "src/base/rng.h"
#include "src/base/stats.h"
#include "src/base/status.h"

namespace demos {
namespace {

TEST(IdsTest, ProcessIdEqualityAndOrdering) {
  ProcessId a{1, 10};
  ProcessId b{1, 10};
  ProcessId c{1, 11};
  ProcessId d{2, 10};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(a, c);
  EXPECT_LT(a, d);
}

TEST(IdsTest, InvalidProcessId) {
  ProcessId id;
  EXPECT_FALSE(id.valid());
  EXPECT_TRUE((ProcessId{3, 7}).valid());
  EXPECT_EQ(kNoProcess, ProcessId{});
}

TEST(IdsTest, AddressToString) {
  ProcessAddress addr{5, {2, 42}};
  EXPECT_EQ(addr.ToString(), "p2.42@m5");
}

TEST(IdsTest, HashDistinguishesIds) {
  ProcessIdHash hash;
  EXPECT_NE(hash(ProcessId{1, 2}), hash(ProcessId{2, 1}));
}

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFoundError("nope");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: nope");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code : {StatusCode::kOk, StatusCode::kNotFound, StatusCode::kInvalidArgument,
                          StatusCode::kPermissionDenied, StatusCode::kUnavailable,
                          StatusCode::kRefused, StatusCode::kExhausted,
                          StatusCode::kNotDeliverable, StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(code), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(InvalidArgumentError("bad"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(BytesTest, RoundTripScalars) {
  ByteWriter w;
  w.U8(0xAB);
  w.U16(0xBEEF);
  w.U32(0xDEADBEEF);
  w.U64(0x0123456789ABCDEFull);
  w.I64(-12345);
  Bytes buf = w.Take();
  EXPECT_EQ(buf.size(), 1u + 2 + 4 + 8 + 8);

  ByteReader r(buf);
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U16(), 0xBEEF);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.I64(), -12345);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, RoundTripBlobAndString) {
  ByteWriter w;
  w.Blob({1, 2, 3});
  w.Str("hello");
  Bytes buf = w.Take();
  ByteReader r(buf);
  EXPECT_EQ(r.Blob(), (Bytes{1, 2, 3}));
  EXPECT_EQ(r.Str(), "hello");
  EXPECT_TRUE(r.ok());
}

TEST(BytesTest, AddressIsEightBytes) {
  // Sec. 4: a forwarding address (one process address) uses 8 bytes.
  ByteWriter w;
  w.Address(ProcessAddress{3, {1, 99}});
  EXPECT_EQ(w.size(), 8u);
  ByteReader r(w.bytes());
  ProcessAddress a = r.Address();
  EXPECT_EQ(a.last_known_machine, 3);
  EXPECT_EQ(a.pid, (ProcessId{1, 99}));
}

TEST(BytesTest, OverrunIsDetected) {
  Bytes small{1, 2};
  ByteReader r(small);
  (void)r.U32();
  EXPECT_FALSE(r.ok());
}

TEST(BytesTest, OverrunBlobReturnsEmpty) {
  ByteWriter w;
  w.U32(1000);  // claims 1000 bytes, provides none
  ByteReader r(w.bytes());
  EXPECT_TRUE(r.Blob().empty());
  EXPECT_FALSE(r.ok());
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.Next() == b.Next() ? 1 : 0;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(10), 10u);
    const std::uint64_t v = rng.Range(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(5);
  Rng forked = a.Fork();
  EXPECT_NE(a.Next(), forked.Next());
}

TEST(StatsTest, CountersAccumulate) {
  StatsRegistry stats;
  stats.Add(StatId::kMsgsSent);
  stats.Add(StatId::kMsgsSent, 4);
  EXPECT_EQ(stats.Get(StatId::kMsgsSent), 5);
  EXPECT_EQ(stats.Get(stat::kMsgsSent), 5);
  stats.AddNamed("x");
  stats.AddNamed("x", 4);
  EXPECT_EQ(stats.Get("x"), 5);
  EXPECT_EQ(stats.Get("missing"), 0);
  EXPECT_EQ(stats.Get(StatId::kMsgsBounced), 0);
}

// counters() lists exactly the touched names: a name touched only with 0, or
// whose value went back to 0 (fwd_records_live takes negative deltas), stays;
// an untouched catalog entry does not appear.
TEST(StatsTest, CountersKeepTouchedNamesAtZero) {
  StatsRegistry stats;
  stats.Add(StatId::kMsgsBounced, 0);
  stats.Add(StatId::kFwdRecordsLive);
  stats.Add(StatId::kFwdRecordsLive, -1);
  stats.AddNamed("rel_give_ups_m0_to_m1", 0);
  const std::map<std::string, std::int64_t> want = {
      {stat::kMsgsBounced, 0}, {stat::kFwdRecordsLive, 0}, {"rel_give_ups_m0_to_m1", 0}};
  EXPECT_EQ(stats.counters(), want);
  // The touched set survives a copy and a merge.
  EXPECT_EQ(StatsRegistry(stats).counters(), want);
  StatsRegistry merged;
  merged.Merge(stats);
  EXPECT_EQ(merged.counters(), want);
}

TEST(StatsTest, GetByNameMatchesAddByIdForEveryCatalogEntry) {
  StatsRegistry stats;
  for (std::size_t i = 0; i < kNumStatIds; ++i) {
    stats.Add(static_cast<StatId>(i), static_cast<std::int64_t>(i) + 1);
  }
  const std::map<std::string, std::int64_t> counters = stats.counters();
  EXPECT_EQ(counters.size(), kNumStatIds) << "duplicate export name in the catalog";
  for (std::size_t i = 0; i < kNumStatIds; ++i) {
    const auto id = static_cast<StatId>(i);
    const std::string name = kStatNames[i];
    EXPECT_EQ(FindStat(name), id) << name;
    EXPECT_EQ(stats.Get(name), static_cast<std::int64_t>(i) + 1) << name;
    EXPECT_EQ(counters.at(name), static_cast<std::int64_t>(i) + 1) << name;
  }
  EXPECT_EQ(FindStat("rel_give_ups_m0_to_m1"), std::nullopt);
}

// The one run-time-named family keeps reading by name, and a catalog name
// handed to AddNamed lands in its slot, so a name never has two homes.
TEST(StatsTest, RunTimeNamedFamilyReadsByName) {
  StatsRegistry stats;
  stats.AddNamed("rel_give_ups_m0_to_m1");
  stats.AddNamed("rel_give_ups_m0_to_m1");
  stats.AddNamed("rel_give_ups_m2_to_m1");
  EXPECT_EQ(stats.Get("rel_give_ups_m0_to_m1"), 2);
  EXPECT_EQ(stats.Get("rel_give_ups_m2_to_m1"), 1);
  stats.AddNamed(stat::kRelGiveUps, 3);
  EXPECT_EQ(stats.Get(StatId::kRelGiveUps), 3);
  EXPECT_EQ(stats.counters().size(), 3u);
}

TEST(StatsTest, DistributionSummary) {
  StatsRegistry stats;
  for (double v : {1.0, 2.0, 3.0, 4.0}) {
    stats.Record("d", v);
  }
  const Distribution* d = stats.GetDistribution("d");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->count(), 4u);
  EXPECT_DOUBLE_EQ(d->Mean(), 2.5);
  EXPECT_DOUBLE_EQ(d->Min(), 1.0);
  EXPECT_DOUBLE_EQ(d->Max(), 4.0);
  EXPECT_DOUBLE_EQ(d->Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(d->Percentile(100), 4.0);
}

TEST(StatsTest, MergeCombines) {
  StatsRegistry a;
  StatsRegistry b;
  a.Add(StatId::kMsgsSent, 2);
  b.Add(StatId::kMsgsSent, 3);
  b.Add(StatId::kMsgsBounced);
  a.AddNamed("n", 2);
  b.AddNamed("n", 3);
  b.Record("d", 7.0);
  a.Merge(b);
  EXPECT_EQ(a.Get(StatId::kMsgsSent), 5);
  EXPECT_EQ(a.Get(StatId::kMsgsBounced), 1);
  EXPECT_EQ(a.Get("n"), 5);
  ASSERT_NE(a.GetDistribution("d"), nullptr);
  EXPECT_EQ(a.GetDistribution("d")->count(), 1u);
}

TEST(StatsTest, ResetClears) {
  StatsRegistry stats;
  stats.Add(StatId::kMsgsSent);
  stats.AddNamed("n");
  stats.Record("d", 1.0);
  stats.Reset();
  EXPECT_EQ(stats.Get(StatId::kMsgsSent), 0);
  EXPECT_EQ(stats.Get("n"), 0);
  EXPECT_TRUE(stats.counters().empty());
  EXPECT_EQ(stats.GetDistribution("d"), nullptr);
}

TEST(StatsTest, CopyTakesSnapshot) {
  StatsRegistry a;
  a.Add(StatId::kMsgsSent, 7);
  a.AddNamed("n", 7);
  a.Record("d", 1.0);
  StatsRegistry b = a;
  a.Add(StatId::kMsgsSent, 1);
  a.AddNamed("n", 1);
  EXPECT_EQ(b.Get(StatId::kMsgsSent), 7);
  EXPECT_EQ(b.Get("n"), 7);
  StatsRegistry c;
  c.Add(StatId::kMsgsBounced);
  c = b;  // assignment replaces, it does not merge
  EXPECT_EQ(c.counters(), b.counters());
  ASSERT_NE(b.GetDistribution("d"), nullptr);
  EXPECT_EQ(b.GetDistribution("d")->count(), 1u);
}

// The parallel engine increments counters from every shard thread (and the
// coordinator merges them); hammer one registry from many threads and check
// nothing tears or is lost.
TEST(StatsTest, ConcurrentIncrementsDoNotTear) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  StatsRegistry stats;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&stats, t] {
      for (int i = 0; i < kPerThread; ++i) {
        stats.Add(StatId::kMsgsSent);
        stats.AddNamed("per_thread_" + std::to_string(t));
        if (i % 64 == 0) {
          stats.Record("dist", static_cast<double>(i));
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(stats.Get(StatId::kMsgsSent), kThreads * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(stats.Get("per_thread_" + std::to_string(t)), kPerThread);
  }
  ASSERT_NE(stats.GetDistribution("dist"), nullptr);
  EXPECT_EQ(stats.GetDistribution("dist")->count(),
            static_cast<std::size_t>(kThreads) * ((kPerThread + 63) / 64));
}

// A shard thread adds while another thread snapshots the registry (the
// metrics sampler's view); TSan must see no race, and every snapshot must be
// a plausible point in time: a monotone counter never goes backwards.
TEST(StatsTest, SnapshotWhileOneWriterAdds) {
  constexpr int kAdds = 50000;
  StatsRegistry stats;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < kAdds; ++i) {
      stats.Add(StatId::kMsgsSent);
      stats.Add(StatId::kFwdRecordsLive, (i % 2 == 0) ? 1 : -1);
      if (i % 1000 == 0) {
        stats.AddNamed("rel_give_ups_m0_to_m1");
      }
    }
    done.store(true);
  });
  std::int64_t last = 0;
  while (!done.load()) {
    const std::map<std::string, std::int64_t> snap = stats.counters();
    auto it = snap.find(stat::kMsgsSent);
    const std::int64_t now = it == snap.end() ? 0 : it->second;
    EXPECT_GE(now, last);
    last = now;
  }
  writer.join();
  EXPECT_EQ(stats.Get(StatId::kMsgsSent), kAdds);
  EXPECT_EQ(stats.Get(StatId::kFwdRecordsLive), 0);
  EXPECT_EQ(stats.Get("rel_give_ups_m0_to_m1"), kAdds / 1000);
}

TEST(PayloadCountersTest, ConcurrentCountsDoNotTear) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  PayloadCounters::Reset();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        PayloadCounters::CountAllocation();
        PayloadCounters::CountCopied(3);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(PayloadCounters::allocations.load(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(PayloadCounters::copied_bytes.load(),
            static_cast<std::uint64_t>(kThreads) * kPerThread * 3);
  PayloadCounters::Reset();
}

}  // namespace
}  // namespace demos
