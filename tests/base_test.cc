// Unit tests for src/base: ids, status, bytes, rng, stats, histogram.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <new>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/histogram.h"
#include "src/base/ids.h"
#include "src/base/log.h"
#include "src/base/rng.h"
#include "src/base/stats.h"
#include "src/base/status.h"

// Every global operator new in this binary is counted, so a test can assert
// that a code path does not touch the heap.
namespace {
std::atomic<std::uint64_t> g_heap_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
// GCC flags free() on operator-new memory once it inlines the pair; here both
// halves are malloc/free by construction.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

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
  StatSlab stats;
  stats.Add(StatId::kMsgsSent);
  stats.Add(StatId::kMsgsSent, 4);
  EXPECT_EQ(stats.Get(StatId::kMsgsSent), 5);
  EXPECT_EQ(stats.Get(stat::kMsgsSent), 5);
  EXPECT_EQ(stats.Get("missing"), 0);
  EXPECT_EQ(stats.Get(StatId::kMsgsBounced), 0);
}

// counters() lists exactly the touched names: a name touched only with 0, or
// whose value went back to 0 (fwd_records_live takes negative deltas), stays;
// an untouched catalog entry does not appear.
TEST(StatsTest, CountersKeepTouchedNamesAtZero) {
  StatSlab stats;
  stats.Add(StatId::kMsgsBounced, 0);
  stats.Add(StatId::kFwdRecordsLive);
  stats.Add(StatId::kFwdRecordsLive, -1);
  const std::map<std::string, std::int64_t> want = {{stat::kMsgsBounced, 0},
                                                    {stat::kFwdRecordsLive, 0}};
  EXPECT_EQ(stats.counters(), want);
  // The touched set survives summing into totals.
  StatTotals totals;
  stats.AddTo(totals);
  EXPECT_EQ(totals.counters, want);
  EXPECT_TRUE(totals.histograms.empty());
}

TEST(StatsTest, GetByNameMatchesAddByIdForEveryCatalogEntry) {
  StatSlab stats;
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

TEST(StatsTest, DistributionSummary) {
  StatSlab stats;
  EXPECT_EQ(stats.Histogram(StatHistogramId::kAdminPayloadBytes).count, 0u);
  for (std::uint64_t v : {1, 2, 3, 4}) {
    stats.Record(StatHistogramId::kAdminPayloadBytes, v);
  }
  const HistogramSnapshot d = stats.Histogram(StatHistogramId::kAdminPayloadBytes);
  EXPECT_EQ(d.count, 4u);
  EXPECT_EQ(d.sum, 10u);
  EXPECT_DOUBLE_EQ(d.Mean(), 2.5);
  EXPECT_EQ(d.min, 1u);
  EXPECT_EQ(d.max, 4u);
  EXPECT_EQ(d.Percentile(0), 1u);
  EXPECT_EQ(d.Percentile(50), 2u);  // nearest rank: the 2nd of 4
  EXPECT_EQ(d.Percentile(100), 4u);
  // Only the sampled histogram is listed.
  StatTotals totals;
  stats.AddTo(totals);
  std::ostringstream dump;
  totals.Dump(dump);
  EXPECT_EQ(dump.str(), "  admin_payload_bytes: n=4 mean=2.5 min=1 p50=2 p95=4 p99=4 max=4\n");
}

TEST(StatsTest, MergeCombines) {
  StatSlab a;
  StatSlab b;
  a.Add(StatId::kMsgsSent, 2);
  b.Add(StatId::kMsgsSent, 3);
  b.Add(StatId::kMsgsBounced);
  a.Record(StatHistogramId::kMemoryImageBytes, 3);
  b.Record(StatHistogramId::kMemoryImageBytes, 7);
  StatTotals totals;
  a.AddTo(totals);
  b.AddTo(totals);
  EXPECT_EQ(totals.counters.at(stat::kMsgsSent), 5);
  EXPECT_EQ(totals.counters.at(stat::kMsgsBounced), 1);
  ASSERT_EQ(totals.histograms.size(), 1u);
  const HistogramSnapshot& image = totals.histograms.at("memory_image_bytes");
  EXPECT_EQ(image.count, 2u);
  EXPECT_EQ(image.min, 3u);
  EXPECT_EQ(image.max, 7u);
}

// Totals are a plain value: later adds to the slab do not reach them.
TEST(StatsTest, CopyTakesSnapshot) {
  StatSlab slab;
  slab.Add(StatId::kMsgsSent, 7);
  slab.Record(StatHistogramId::kAdminPayloadBytes, 1);
  StatTotals snapshot;
  slab.AddTo(snapshot);
  slab.Add(StatId::kMsgsSent, 1);
  slab.Record(StatHistogramId::kAdminPayloadBytes, 1);
  EXPECT_EQ(snapshot.counters.at(stat::kMsgsSent), 7);
  EXPECT_EQ(snapshot.histograms.at("admin_payload_bytes").count, 1u);
  EXPECT_EQ(slab.Get(StatId::kMsgsSent), 8);
}

// The single-writer contract: each slab has one writing thread (a kernel's
// shard), and readers only load.  Several threads, each the sole writer of
// its own slab, lose no count; the totals are exact once they are joined.
TEST(StatsTest, OneWriterPerSlabLosesNoCount) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<StatSlab> slabs(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&slab = slabs[static_cast<std::size_t>(t)]] {
      for (int i = 0; i < kPerThread; ++i) {
        slab.Add(StatId::kMsgsSent);
        if (i % 64 == 0) {
          slab.Record(StatHistogramId::kAdminPayloadBytes, static_cast<std::uint64_t>(i));
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  StatTotals totals;
  for (const StatSlab& slab : slabs) {
    EXPECT_EQ(slab.Get(StatId::kMsgsSent), kPerThread);
    slab.AddTo(totals);
  }
  EXPECT_EQ(totals.counters.at(stat::kMsgsSent), kThreads * kPerThread);
  EXPECT_EQ(totals.histograms.at("admin_payload_bytes").count,
            static_cast<std::uint64_t>(kThreads) * ((kPerThread + 63) / 64));
}

// A shard thread adds while another thread snapshots the slab (the metrics
// sampler's view); TSan must see no race, and every snapshot must be a
// plausible point in time: a monotone counter never goes backwards.
TEST(StatsTest, SnapshotWhileOneWriterAdds) {
  constexpr int kAdds = 50000;
  StatSlab stats;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < kAdds; ++i) {
      stats.Add(StatId::kMsgsSent);
      stats.Add(StatId::kFwdRecordsLive, (i % 2 == 0) ? 1 : -1);
      if (i % 1000 == 0) {
        stats.Record(StatHistogramId::kAdminPayloadBytes, static_cast<std::uint64_t>(i));
      }
    }
    done.store(true);
  });
  std::int64_t last = 0;
  std::uint64_t last_samples = 0;
  while (!done.load()) {
    const std::map<std::string, std::int64_t> snap = stats.counters();
    auto it = snap.find(stat::kMsgsSent);
    const std::int64_t now = it == snap.end() ? 0 : it->second;
    EXPECT_GE(now, last);
    last = now;
    const std::uint64_t samples = stats.Histogram(StatHistogramId::kAdminPayloadBytes).count;
    EXPECT_GE(samples, last_samples);
    last_samples = samples;
  }
  writer.join();
  EXPECT_EQ(stats.Get(StatId::kMsgsSent), kAdds);
  EXPECT_EQ(stats.Get(StatId::kFwdRecordsLive), 0);
  EXPECT_EQ(stats.Histogram(StatHistogramId::kAdminPayloadBytes).count, kAdds / 1000u);
}

// ---------------------------------------------------------------------------
// HistogramSnapshot against an exact reference: the same samples, sorted.
// ---------------------------------------------------------------------------

// Nearest-rank percentile of sorted samples, the definition Percentile()
// approximates.
std::uint64_t ExactPercentile(const std::vector<std::uint64_t>& sorted, double p) {
  const double wanted = p / 100.0 * static_cast<double>(sorted.size());
  const auto rank = std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::ceil(wanted)));
  return sorted[static_cast<std::size_t>(rank - 1)];
}

// Records `samples` and checks every summary against the sorted reference:
// count/sum/min/max exactly, percentiles within the stated relative error.
void ExpectMatchesReference(std::vector<std::uint64_t> samples) {
  HistogramSnapshot h;
  std::uint64_t sum = 0;
  for (std::uint64_t v : samples) {
    h.Record(v);
    sum += v;
  }
  std::sort(samples.begin(), samples.end());
  EXPECT_EQ(h.count, samples.size());
  EXPECT_EQ(h.sum, sum);
  EXPECT_EQ(h.min, samples.front());
  EXPECT_EQ(h.max, samples.back());
  for (double p : {0.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    const std::uint64_t exact = ExactPercentile(samples, p);
    const std::uint64_t got = h.Percentile(p);
    const double error = std::abs(static_cast<double>(got) - static_cast<double>(exact));
    EXPECT_LE(error, static_cast<double>(exact) * kHistogramRelativeError)
        << "p" << p << ": got " << got << ", exact " << exact;
    if (exact < kHistogramExactBelow) {
      EXPECT_EQ(got, exact) << "p" << p;
    }
  }
}

TEST(HistogramTest, UniformPercentilesWithinStatedError) {
  Rng rng(11);
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < 100000; ++i) {
    samples.push_back(rng.Range(0, 1'000'000));
  }
  ExpectMatchesReference(samples);
}

TEST(HistogramTest, HeavyTailedPercentilesWithinStatedError) {
  // Pareto-shaped: most samples near 100, a tail out to ~10^15.
  Rng rng(12);
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < 100000; ++i) {
    const double u = std::max(1e-9, 1.0 - rng.NextDouble());
    samples.push_back(static_cast<std::uint64_t>(100.0 / std::pow(u, 1.5)));
  }
  ExpectMatchesReference(samples);
}

TEST(HistogramTest, ConstantInputIsExact) {
  for (std::uint64_t value : {std::uint64_t{0}, std::uint64_t{7}, std::uint64_t{1234567},
                              std::numeric_limits<std::uint64_t>::max() / 3}) {
    HistogramSnapshot h;
    for (int i = 0; i < 1000; ++i) {
      h.Record(value);
    }
    for (double p : {0.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
      EXPECT_EQ(h.Percentile(p), value) << value << " p" << p;
    }
  }
  ExpectMatchesReference(std::vector<std::uint64_t>(5000, 999));
}

TEST(HistogramTest, SmallValuesAreExact) {
  // Every value below 32 owns a bucket, so any mix of them is exact.
  Rng rng(13);
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < 20000; ++i) {
    samples.push_back(rng.Below(kHistogramExactBelow));
  }
  ExpectMatchesReference(samples);
  for (std::uint64_t v = 0; v < kHistogramExactBelow; ++v) {
    EXPECT_EQ(HistogramBucketOf(v), static_cast<int>(v));
    EXPECT_EQ(HistogramBucketWidth(HistogramBucketOf(v)), 1u);
  }
}

TEST(HistogramTest, MergeEqualsOneHistogramFedBoth) {
  Rng rng(14);
  HistogramSnapshot a;
  HistogramSnapshot b;
  HistogramSnapshot both;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t x = rng.Range(0, 100);
    const std::uint64_t y = rng.Range(1000, 1'000'000'000);
    a.Record(x);
    b.Record(y);
    both.Record(x);
    both.Record(y);
  }
  a.Merge(b);
  EXPECT_TRUE(a == both);
  // Merging an empty histogram changes nothing, min included.
  HistogramSnapshot copy = a;
  copy.Merge(HistogramSnapshot{});
  EXPECT_TRUE(copy == a);
}

// Distribution kept every sample; the histogram has a fixed size, so a
// million records into a slab whose histograms exist never touch the heap.
TEST(HistogramTest, MillionRecordsLeaveMemoryUnchanged) {
  StatSlab stats;
  stats.Record(StatHistogramId::kAdminPayloadBytes, 9);  // creates the block
  const std::uint64_t before = g_heap_allocations.load();
  for (std::uint64_t i = 0; i < 1'000'000; ++i) {
    stats.Record(StatHistogramId::kAdminPayloadBytes, i % 4096);
  }
  EXPECT_EQ(g_heap_allocations.load() - before, 0u);
  EXPECT_EQ(stats.Histogram(StatHistogramId::kAdminPayloadBytes).count, 1'000'001u);
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

TEST(PayloadCountersTest, ReadsWhileWritersRunAreMonotoneAndExactAfterJoin) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  PayloadCounters::Reset();
  std::atomic<int> running{kThreads};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&running] {
      for (int i = 0; i < kPerThread; ++i) {
        PayloadCounters::CountAllocation();
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  std::uint64_t last = 0;
  std::uint64_t reads = 0;
  bool monotone = true;
  while (running.load(std::memory_order_acquire) != 0) {
    const std::uint64_t now = PayloadCounters::allocations.load(std::memory_order_relaxed);
    monotone = monotone && now >= last;
    last = now;
    ++reads;
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_TRUE(monotone) << "a striped read went backwards after " << reads << " reads";
  const std::uint64_t total = static_cast<std::uint64_t>(kThreads) * kPerThread;
  EXPECT_LE(last, total);
  EXPECT_EQ(PayloadCounters::allocations.load(), total);
  EXPECT_EQ(static_cast<std::uint64_t>(PayloadCounters::allocations), total);
  PayloadCounters::Reset();
  EXPECT_EQ(PayloadCounters::allocations, 0u);
}

// A stripe is claimed by one live thread and handed back, value kept, when
// it exits.  More threads alive at once than there are owned stripes share
// the overflow stripe.  Rounds of short-lived threads reuse the stripes the
// previous round handed back; every round's total must stay exact.
TEST(PayloadCountersTest, StripesHandedBackAtThreadExitKeepTheirCounts) {
  constexpr int kRounds = 3;
  constexpr int kThreads = 80;  // more than the owned stripes
  constexpr int kPerThread = 1000;
  PayloadCounters::Reset();
  for (int round = 1; round <= kRounds; ++round) {
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&go] {
        while (!go.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        for (int i = 0; i < kPerThread; ++i) {
          PayloadCounters::CountAllocation();
        }
      });
    }
    go.store(true, std::memory_order_release);
    for (auto& t : threads) {
      t.join();
    }
    EXPECT_EQ(PayloadCounters::allocations.load(),
              static_cast<std::uint64_t>(round) * kThreads * kPerThread)
        << "round " << round;
  }
  PayloadCounters::Reset();
}

// DEMOS_LOG tests the level before building the line, so operands of a
// disabled line never run.
class LogTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = GlobalLogLevel(); }
  void TearDown() override { GlobalLogLevel() = saved_; }

 private:
  LogLevel saved_ = LogLevel::kWarn;
};

TEST_F(LogTest, DisabledLevelDoesNotEvaluateArguments) {
  GlobalLogLevel() = LogLevel::kWarn;
  int evaluated = 0;
  testing::internal::CaptureStderr();
  DEMOS_LOG(kInfo, "test") << "count " << ++evaluated;
  DEMOS_LOG(kDebug, "test") << ++evaluated;
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
  EXPECT_EQ(evaluated, 0);
}

TEST_F(LogTest, EnabledLevelEvaluatesArgumentsAndPrintsOneLine) {
  GlobalLogLevel() = LogLevel::kInfo;
  int evaluated = 0;
  testing::internal::CaptureStderr();
  DEMOS_LOG(kInfo, "test") << "count " << ++evaluated;
  DEMOS_LOG(kWarn, "test") << "count " << ++evaluated;
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "[I test] count 1\n[W test] count 2\n");
  EXPECT_EQ(evaluated, 2);
}

TEST_F(LogTest, MacroInsideIfElseTakesTheCallersBranch) {
  GlobalLogLevel() = LogLevel::kWarn;
  for (const bool cond : {true, false}) {
    int logged = 0;
    int other = 0;
    testing::internal::CaptureStderr();
    if (cond)
      DEMOS_LOG(kWarn, "test") << ++logged;
    else
      ++other;
    const std::string out = testing::internal::GetCapturedStderr();
    EXPECT_EQ(logged, cond ? 1 : 0);
    EXPECT_EQ(other, cond ? 0 : 1);
    EXPECT_EQ(out, cond ? "[W test] 1\n" : "");
  }
  // Below the level the logging branch is still the one taken, and it does
  // nothing.
  int other = 0;
  if (true)
    DEMOS_LOG(kInfo, "test") << ++other;
  else
    ++other;
  EXPECT_EQ(other, 0);
}

}  // namespace
}  // namespace demos
