// Tests for the shard-level observability layer (src/obs): the metrics
// engine's catalog/histograms/snapshots (including a snapshot-under-write
// stress that TSan must pass), the flight recorder's ring semantics and
// deterministic dumps, the hub's trigger latch, the StatsRegistry /
// PayloadCounters sections of a snapshot (each counter in one home), the
// exporters, and the parallel-trace clock normalization.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/base/stats.h"
#include "src/check/chaos.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/obs/trace_export.h"
#include "src/run/parallel_cluster.h"
#include "src/workload/programs.h"
#include "src/workload/token_ring_harness.h"
#include "tests/test_util.h"

namespace demos {
namespace {

// ---------------------------------------------------------------------------
// Catalog.
// ---------------------------------------------------------------------------

TEST(MetricsCatalog, EveryIdHasAName) {
  for (int i = 0; i < kNumCounterIds; ++i) {
    EXPECT_STRNE(CounterName(static_cast<CounterId>(i)), "") << "counter " << i;
  }
  for (int i = 0; i < kNumGaugeIds; ++i) {
    EXPECT_STRNE(GaugeName(static_cast<GaugeId>(i)), "") << "gauge " << i;
  }
  for (int i = 0; i < kNumHistogramIds; ++i) {
    EXPECT_STRNE(HistogramName(static_cast<HistogramId>(i)), "") << "histogram " << i;
  }
  for (int i = 1; i < static_cast<int>(FrEvent::kInvariantFail) + 1; ++i) {
    EXPECT_STRNE(FrEventName(static_cast<FrEvent>(i)), "") << "fr event " << i;
  }
}

// ---------------------------------------------------------------------------
// Histograms.
// ---------------------------------------------------------------------------

// Log-linear layout: each power of two from 32 up starts a group of 16
// equal sub-buckets; below 32 every value owns a bucket.
TEST(Histogram, PowerOfTwoBucketing) {
  EXPECT_EQ(HistogramBucketOf(0), 0);
  EXPECT_EQ(HistogramBucketOf(31), 31);
  for (int e = 5; e < 64; ++e) {
    const std::uint64_t pow2 = std::uint64_t{1} << e;
    const int first = HistogramBucketOf(pow2);
    EXPECT_EQ(first, (e - 3) * 16) << e;
    EXPECT_EQ(HistogramBucketOf(pow2 + (pow2 - 1)), first + 15) << e;
    EXPECT_EQ(HistogramBucketLowerBound(first), pow2) << e;
  }
  EXPECT_EQ(HistogramBucketOf(~std::uint64_t{0}), kHistogramBuckets - 1);

  // The buckets tile [0, 2^64) in order, and none is wider than 1/16 of its
  // lower bound once past the exact range.
  std::uint64_t next = 0;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    const std::uint64_t lo = HistogramBucketLowerBound(b);
    const std::uint64_t width = HistogramBucketWidth(b);
    ASSERT_EQ(lo, next) << b;
    EXPECT_EQ(HistogramBucketOf(lo), b);
    EXPECT_EQ(HistogramBucketOf(lo + (width - 1)), b);
    if (lo >= kHistogramExactBelow) {
      EXPECT_LE(width * 16, lo) << b;
    }
    next = lo + width;  // wraps to 0 after the last bucket
  }
  EXPECT_EQ(next, 0u);
}

TEST(Histogram, ObserveSnapshotAndMerge) {
  MetricShard a;
  MetricShard b;
  HistogramSnapshot plain;
  for (int i = 0; i < 10; ++i) {
    a.Observe(HistogramId::kDrainBatchSize, 3);
    plain.Record(3);
  }
  for (int i = 0; i < 5; ++i) {
    b.Observe(HistogramId::kDrainBatchSize, 100);
    plain.Record(100);
  }
  HistogramSnapshot ha = a.Histogram(HistogramId::kDrainBatchSize);
  const HistogramSnapshot hb = b.Histogram(HistogramId::kDrainBatchSize);
  EXPECT_EQ(ha.count, 10u);
  EXPECT_EQ(ha.sum, 30u);
  EXPECT_EQ(ha.buckets[3], 10u);
  ha.Merge(hb);
  // The slab records through the same type as a plain histogram.
  EXPECT_TRUE(ha == plain);
  EXPECT_EQ(ha.count, 15u);
  EXPECT_EQ(ha.sum, 30u + 500u);
  EXPECT_EQ(ha.min, 3u);
  EXPECT_EQ(ha.max, 100u);
  EXPECT_EQ(ha.buckets[static_cast<std::size_t>(HistogramBucketOf(100))], 5u);
  EXPECT_DOUBLE_EQ(ha.Mean(), 530.0 / 15.0);
  // Nearest rank: the 8th of 15 samples is a 3 (exact below 32); the 12th
  // is a 100, whose bucket [100, 103] reports its clamped midpoint.
  EXPECT_EQ(ha.Percentile(50), 3u);
  EXPECT_EQ(ha.Percentile(75), 100u);
  EXPECT_EQ(ha.Percentile(100), 100u);
  // An untouched slab histogram is empty.
  EXPECT_EQ(a.Histogram(HistogramId::kParkWaitUs).count, 0u);
  EXPECT_EQ(a.Histogram(HistogramId::kParkWaitUs).Percentile(99), 0u);
}

// ---------------------------------------------------------------------------
// Snapshot under concurrent writes.  The contract: writers never block, the
// reader sees a coherent-enough point-in-time view, and the final snapshot
// (after join) is exact.  Run under TSan this also proves the slab really is
// race-free.
// ---------------------------------------------------------------------------

TEST(MetricsEngine, SnapshotWhileWritersRun) {
  constexpr int kShards = 4;
  constexpr std::uint64_t kPerShard = 50'000;
  MetricsEngine engine(kShards);

  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  writers.reserve(kShards);
  for (int i = 0; i < kShards; ++i) {
    writers.emplace_back([&engine, &go, i] {
      while (!go.load(std::memory_order_acquire)) {
      }
      MetricShard& slab = engine.shard(i);
      for (std::uint64_t n = 0; n < kPerShard; ++n) {
        slab.Inc(CounterId::kMsgsDrained);
        slab.Set(GaugeId::kMailboxDepth, static_cast<std::int64_t>(n));
        slab.Observe(HistogramId::kDrainBatchSize, n & 0xFF);
      }
    });
  }
  go.store(true, std::memory_order_release);

  // Concurrent snapshots: monotone counters must never appear to decrease.
  std::uint64_t last = 0;
  for (int probe = 0; probe < 50; ++probe) {
    const MetricsSnapshot snap = engine.Snapshot();
    const std::uint64_t now = snap.total.counters[static_cast<int>(CounterId::kMsgsDrained)];
    EXPECT_GE(now, last);
    last = now;
    std::this_thread::yield();
  }
  for (std::thread& t : writers) {
    t.join();
  }

  const MetricsSnapshot final_snap = engine.Snapshot();
  EXPECT_EQ(final_snap.total.counters[static_cast<int>(CounterId::kMsgsDrained)],
            kPerShard * kShards);
  const HistogramSnapshot h =
      final_snap.total.histograms[static_cast<int>(HistogramId::kDrainBatchSize)];
  EXPECT_EQ(h.count, kPerShard * kShards);
  for (int i = 0; i < kShards; ++i) {
    EXPECT_EQ(final_snap.shards[static_cast<std::size_t>(i)]
                  .counters[static_cast<int>(CounterId::kMsgsDrained)],
              kPerShard);
    EXPECT_EQ(final_snap.shards[static_cast<std::size_t>(i)]
                  .gauges[static_cast<int>(GaugeId::kMailboxDepth)],
              static_cast<std::int64_t>(kPerShard - 1));
  }
}

// ---------------------------------------------------------------------------
// Flight recorder.
// ---------------------------------------------------------------------------

// Deterministic test clock: monotonically increasing counter via ctx.
std::uint64_t CountingClock(void* ctx) {
  return (*static_cast<std::uint64_t*>(ctx))++;
}

TEST(FlightRecorder, WrapAroundKeepsNewestWindow) {
  std::uint64_t tick = 0;
  FlightRecorder rec(/*shard=*/3, /*capacity=*/8);
  rec.SetClock(&CountingClock, &tick);
  for (std::uint64_t i = 0; i < 20; ++i) {
    rec.Record(FrEvent::kMailboxPush, /*a=*/i);
  }
  EXPECT_EQ(rec.capacity(), 8u);
  EXPECT_EQ(rec.total(), 20u);
  EXPECT_EQ(rec.dropped(), 12u);

  const std::vector<FlightRecord> window = rec.SnapshotRecords();
  ASSERT_EQ(window.size(), 8u);
  for (std::size_t i = 0; i < window.size(); ++i) {
    EXPECT_EQ(window[i].a, 12 + i) << "oldest-first, seq " << window[i].seq;
    EXPECT_EQ(window[i].seq, 12 + i);
    EXPECT_EQ(window[i].shard, 3);
  }
}

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  FlightRecorder rec(0, /*capacity=*/100);
  EXPECT_EQ(rec.capacity(), 128u);
}

TEST(FlightRecorderHub, TriggerLatchesFirstReason) {
  FlightRecorderHub hub(/*shards=*/2, /*capacity_per_shard=*/16);
  EXPECT_FALSE(hub.triggered());
  EXPECT_TRUE(hub.Trigger("first failure"));
  EXPECT_FALSE(hub.Trigger("second failure"));
  EXPECT_STREQ(hub.reason(), "first failure");

  // Recorder-level Trigger (the kernels' path) reaches the same latch.
  hub.ResetTrigger();
  EXPECT_TRUE(hub.recorder(1).Trigger("watchdog adopt"));
  EXPECT_STREQ(hub.reason(), "watchdog adopt");

  // A standalone recorder has no hub to latch.
  FlightRecorder lone(0, 8);
  EXPECT_FALSE(lone.Trigger("nowhere to go"));
}

TEST(FlightRecorderHub, MergedOrdersByTimeShardSeq) {
  std::uint64_t tick = 0;
  FlightRecorderHub hub(/*shards=*/2, /*capacity_per_shard=*/16);
  hub.SetClockAll(&CountingClock, &tick);
  // Interleave writers so timestamps alternate between shards.
  hub.recorder(0).Record(FrEvent::kParkBegin);       // t=0
  hub.recorder(1).Record(FrEvent::kMailboxPush, 0);  // t=1
  hub.recorder(0).Record(FrEvent::kParkEnd, 1);      // t=2
  hub.recorder(1).Record(FrEvent::kDrainBatch, 4);   // t=3

  const std::vector<FlightRecord> merged = hub.Merged();
  ASSERT_EQ(merged.size(), 4u);
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LE(merged[i - 1].t_ns, merged[i].t_ns);
  }
  EXPECT_EQ(merged[0].shard, 0);
  EXPECT_EQ(merged[1].shard, 1);
  EXPECT_EQ(merged[2].type, FrEvent::kParkEnd);
}

TEST(FlightRecorder, DumpsAreDeterministic) {
  auto build = [] {
    std::uint64_t tick = 1000;
    FlightRecorderHub hub(2, 8);
    hub.SetClockAll(&CountingClock, &tick);
    hub.recorder(0).Record(FrEvent::kMailboxPush, 1);
    hub.recorder(1).Record(FrEvent::kBackpressure, 0, 17);
    hub.recorder(0).Record(FrEvent::kMigrationPhase,
                           static_cast<std::uint64_t>(FrMigrationEdge::kAccepted), 42);
    hub.Trigger("invariant failure");
    return hub.Merged();
  };
  const std::vector<FlightRecord> a = build();
  const std::vector<FlightRecord> b = build();

  std::ostringstream text_a;
  std::ostringstream text_b;
  WriteFlightText(a, "invariant failure", text_a);
  WriteFlightText(b, "invariant failure", text_b);
  EXPECT_EQ(text_a.str(), text_b.str());
  EXPECT_NE(text_a.str().find("invariant failure"), std::string::npos);
  EXPECT_NE(text_a.str().find(FrEventName(FrEvent::kBackpressure)), std::string::npos);

  std::ostringstream trace_a;
  std::ostringstream trace_b;
  WriteFlightChromeTrace(a, trace_a);
  WriteFlightChromeTrace(b, trace_b);
  EXPECT_EQ(trace_a.str(), trace_b.str());
  EXPECT_NE(trace_a.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace_a.str().find(FrMigrationEdgeName(FrMigrationEdge::kAccepted)),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// StatsRegistry counters in the snapshot: one home per counter.
// ---------------------------------------------------------------------------

TEST(BuildSnapshot, FoldsLegacyRegistriesWithoutDoubleCounting) {
  StatsRegistry kernel0;
  StatsRegistry kernel1;
  kernel0.Add(StatId::kMsgsSent, 7);
  kernel1.Add(StatId::kMsgsSent, 5);
  kernel1.Add(StatId::kMsgsForwarded, 2);

  const MetricsSnapshot snap = BuildSnapshot(nullptr, {&kernel0, &kernel1});
  ASSERT_EQ(snap.kernel_counters.size(), 2u);
  EXPECT_EQ(snap.kernel_counters[0].at("kernel.msgs_sent"), 7);
  EXPECT_EQ(snap.kernel_counters[1].at("kernel.msgs_sent"), 5);
  // The total is the per-shard sum, folded exactly once.
  EXPECT_EQ(snap.kernel_total.at("kernel.msgs_sent"), 12);
  EXPECT_EQ(snap.kernel_total.at("kernel.msgs_forwarded"), 2);
  // No runtime engine attached: no shard slabs.
  EXPECT_TRUE(snap.shards.empty());
}

// The object following `"key":` in a JSON text, braces balanced.
std::string JsonObjectAfter(const std::string& json, const std::string& key,
                            std::size_t from = 0) {
  const std::size_t at = json.find("\"" + key + "\":{", from);
  if (at == std::string::npos) {
    return "";
  }
  const std::size_t open = json.find('{', at);
  int depth = 0;
  for (std::size_t i = open; i < json.size(); ++i) {
    depth += json[i] == '{' ? 1 : json[i] == '}' ? -1 : 0;
    if (depth == 0) {
      return json.substr(open, i - open + 1);
    }
  }
  return "";
}

std::size_t CountOccurrences(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

// A lossy sequential run with metrics on: every rel_* fact the reliable
// transport counts appears once in the snapshot and once in the exported
// totals, equal to the transport's own registry, and no name is shared
// between the runtime counters and the kernel section.
TEST(BuildSnapshot, RelCountersHaveOneHome) {
  testutil::RegisterPrograms();
  ClusterConfig config;
  config.machines = 3;
  config.metrics_enabled = true;
  config.reliable_layer = true;
  config.reliable.retransmit_timeout_us = 2'000;
  config.network.drop_probability = 0.2;
  config.network.duplicate_probability = 0.05;
  config.network.seed = 42;
  Cluster cluster(config);
  auto counter = cluster.kernel(0).SpawnProcess("counter");
  ASSERT_TRUE(counter.ok());
  cluster.RunUntilIdle();
  testutil::MigrateAndSettle(cluster, counter->pid, 0, 1);
  for (int i = 0; i < 20; ++i) {
    cluster.kernel(2).SendFromKernel(ProcessAddress{0, counter->pid}, kIncrement, {});
  }
  cluster.RunUntilIdle();

  const std::map<std::string, std::int64_t> rel = cluster.reliable()->stats().counters();
  ASSERT_GT(rel.at(stat::kRelRetransmits), 0);
  ASSERT_GT(rel.at(stat::kRelAcksSent), 0);
  ASSERT_GT(rel.at(stat::kRelDuplicatesDropped), 0);

  const MetricsSnapshot snap = cluster.BuildSnapshot();
  ASSERT_EQ(snap.kernel_counters.size(), 3u + 1u);  // kernels, then the transport
  for (const auto& [name, value] : rel) {
    const std::string canonical = "kernel." + name;
    int homes = 0;
    for (const auto& registry : snap.kernel_counters) {
      homes += static_cast<int>(registry.count(canonical));
    }
    EXPECT_EQ(homes, 1) << name;
    EXPECT_EQ(snap.kernel_total.at(canonical), value) << name;
  }

  std::set<std::string> kernel_names;
  for (const auto& [canonical, value] : snap.kernel_total) {
    kernel_names.insert(canonical.substr(std::string("kernel.").size()));
  }
  for (const char* runtime : kCounterNames) {
    EXPECT_EQ(kernel_names.count(runtime), 0u) << runtime;
    EXPECT_NE(std::string(runtime).rfind("rel_", 0), 0u) << runtime;
  }

  MetricsTimeSeries series;
  series.final_snapshot = snap;
  std::ostringstream os;
  WriteMetricsJson(series, os);
  const std::string json = os.str();
  const std::string final_obj = JsonObjectAfter(json, "final");
  const std::string runtime = JsonObjectAfter(final_obj, "counters");
  const std::string kernel_total = JsonObjectAfter(JsonObjectAfter(final_obj, "kernel"), "total");
  ASSERT_FALSE(runtime.empty());
  ASSERT_FALSE(kernel_total.empty());
  EXPECT_EQ(runtime.find("rel_"), std::string::npos);
  for (const auto& [name, value] : rel) {
    const std::string key = "\"kernel." + name + "\":";
    EXPECT_EQ(CountOccurrences(kernel_total, key), 1u) << name;
    EXPECT_NE(kernel_total.find(key + std::to_string(value)), std::string::npos) << name;
  }
}

// ---------------------------------------------------------------------------
// Exporters.
// ---------------------------------------------------------------------------

TEST(MetricsExport, JsonCarriesSchemaAndSeries) {
  MetricsEngine engine(2);
  engine.shard(0).Inc(CounterId::kMailboxPushes, 3);
  engine.shard(1).Observe(HistogramId::kParkWaitUs, 150);
  engine.shard(1).Observe(HistogramId::kParkWaitUs, 150);
  engine.shard(1).Observe(HistogramId::kParkWaitUs, 7);

  MetricsTimeSeries series;
  series.interval_seconds = 0.01;
  MetricsSample sample;
  sample.t_seconds = 0.01;
  sample.shards = engine.Levels();
  series.samples.push_back(sample);
  series.final_snapshot = BuildSnapshot(&engine);

  std::ostringstream os;
  WriteMetricsJson(series, os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema\":\"demos-metrics-v2\""), std::string::npos);
  EXPECT_NE(json.find("\"series\""), std::string::npos);
  EXPECT_NE(json.find("\"final\""), std::string::npos);
  EXPECT_EQ(json.find("\"aliases\""), std::string::npos);
  EXPECT_NE(json.find(CounterName(CounterId::kMailboxPushes)), std::string::npos);
  // Histograms carry exact summaries and only their non-empty buckets, as
  // [index, count] pairs.
  const std::string park = "\"park_wait_us\":{\"count\":3,\"sum\":307,\"min\":7,\"max\":150,"
                           "\"buckets\":[[7,1],[" +
                           std::to_string(HistogramBucketOf(150)) + ",2]]}";
  EXPECT_NE(json.find(park), std::string::npos) << json;
  EXPECT_NE(json.find("\"drain_batch_size\":{\"count\":0,\"sum\":0,\"min\":0,\"max\":0,"
                      "\"buckets\":[]}"),
            std::string::npos);
}

TEST(MetricsExport, PrometheusTextHasShardLabelsAndCumulativeBuckets) {
  MetricsEngine engine(2);
  engine.shard(0).Inc(CounterId::kMsgsDrained, 9);
  engine.shard(1).Set(GaugeId::kSpillDepth, 4);
  engine.shard(0).Observe(HistogramId::kDrainBatchSize, 2);

  std::ostringstream os;
  WritePrometheusText(BuildSnapshot(&engine), os);
  const std::string text = os.str();
  EXPECT_NE(text.find("demos_msgs_drained_total{shard=\"0\"} 9"), std::string::npos);
  EXPECT_NE(text.find("demos_spill_depth{shard=\"1\"} 4"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Sampler.
// ---------------------------------------------------------------------------

TEST(MetricsSampler, CollectsPeriodicSamplesAndRunsCollector) {
  MetricsEngine engine(1);
  std::atomic<bool> stop{false};
  std::thread writer([&engine, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      engine.shard(0).Inc(CounterId::kEventsExecuted);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });

  std::atomic<int> collector_runs{0};
  MetricsSampler sampler(&engine, std::chrono::milliseconds(2));
  sampler.SetCollector([&collector_runs] { collector_runs.fetch_add(1); });
  sampler.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  sampler.Stop();
  stop.store(true, std::memory_order_release);
  writer.join();

  const MetricsTimeSeries series = sampler.TakeSeries();
  ASSERT_FALSE(series.samples.empty());
  EXPECT_GT(collector_runs.load(), 0);
  // Time and counters are monotone across samples.
  for (std::size_t i = 1; i < series.samples.size(); ++i) {
    EXPECT_GE(series.samples[i].t_seconds, series.samples[i - 1].t_seconds);
    EXPECT_GE(series.samples[i].shards[0].counters[static_cast<int>(CounterId::kEventsExecuted)],
              series.samples[i - 1]
                  .shards[0]
                  .counters[static_cast<int>(CounterId::kEventsExecuted)]);
  }
  EXPECT_GE(series.final_snapshot.total.counters[static_cast<int>(CounterId::kEventsExecuted)],
            series.samples.back().shards[0].counters[static_cast<int>(CounterId::kEventsExecuted)]);
}

// ---------------------------------------------------------------------------
// Clock normalization.
// ---------------------------------------------------------------------------

TraceEvent EventAt(MachineId machine, SimTime ts, const char* name) {
  TraceEvent ev;
  ev.ts = ts;
  ev.machine = machine;
  ev.category = trace::kMessage;
  ev.name = name;
  return ev;
}

TEST(NormalizeShardClocks, RebasesSkewedShardsOntoOneAxis) {
  // Shard 1's thread started 1ms of real time after shard 0, but both virtual
  // clocks read 100us when their events fired.  Raw merge would interleave
  // them as simultaneous; normalization must put shard 1's event 1ms later.
  const std::vector<ClockSyncPoint> syncs = {
      {/*machine=*/0, /*virt_us=*/0, /*real_ns=*/1'000'000},
      {/*machine=*/1, /*virt_us=*/0, /*real_ns=*/2'000'000},
  };
  const std::vector<TraceEvent> events = {
      EventAt(0, 100, "a"),
      EventAt(1, 100, "b"),
  };
  const std::vector<TraceEvent> out = NormalizeShardClocks(events, syncs);
  ASSERT_EQ(out.size(), 2u);
  // Epoch = shard 0's first sync; 1:1 extrapolation past the single point.
  EXPECT_EQ(out[0].ts, 100u);
  EXPECT_STREQ(out[0].name, "a");
  EXPECT_EQ(out[1].ts, 1100u);
  EXPECT_STREQ(out[1].name, "b");
}

TEST(NormalizeShardClocks, InterpolatesBetweenSyncPoints) {
  // Shard 0's virtual clock ran at half real speed between the two syncs:
  // 1000 virtual us spanned 2000 real us.
  const std::vector<ClockSyncPoint> syncs = {
      {0, 0, 1'000'000},
      {0, 1000, 3'000'000},
  };
  const std::vector<TraceEvent> events = {EventAt(0, 500, "mid")};
  const std::vector<TraceEvent> out = NormalizeShardClocks(events, syncs);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].ts, 1000u);  // (2'000'000ns - epoch) / 1000
}

TEST(NormalizeShardClocks, MachinesWithoutSyncsPassThrough) {
  const std::vector<ClockSyncPoint> syncs = {{0, 0, 5'000'000}};
  const std::vector<TraceEvent> events = {EventAt(7, 42, "lonely")};
  const std::vector<TraceEvent> out = NormalizeShardClocks(events, syncs);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].ts, 42u);
}

// ---------------------------------------------------------------------------
// End-to-end: a real parallel run populates the metrics, the flight
// recorder, and normalized traces.
// ---------------------------------------------------------------------------

class ObservabilityIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override { RegisterWorkloadPrograms(); }
};

TEST_F(ObservabilityIntegrationTest, ParallelRunPopulatesMetricsAndRecorder) {
  ParallelClusterConfig pc;
  pc.machines = 2;
  pc.trace_enabled = true;
  ParallelCluster cluster(pc);

  TokenRingSpec spec;
  spec.rings = 2;
  spec.nodes_per_ring = 4;
  spec.tokens_per_node = 1;
  spec.hops_per_token = 50;
  const std::vector<TokenRing> rings = BuildTokenRings(cluster, spec);
  ASSERT_FALSE(rings.empty());
  KickTokenRings(cluster, rings, spec.tokens_per_node, spec.hops_per_token);
  ASSERT_TRUE(cluster.RunUntilQuiescent(std::chrono::milliseconds(30000)));
  cluster.RefreshDepthGauges();
  cluster.Stop();

  ASSERT_NE(cluster.metrics(), nullptr);
  const MetricsSnapshot snap = BuildSnapshot(cluster.metrics(), cluster.KernelStats());
  ASSERT_EQ(static_cast<int>(snap.shards.size()), 2 + 1);  // shards + coordinator
  const auto total = [&snap](CounterId id) {
    return snap.total.counters[static_cast<int>(id)];
  };
  EXPECT_GT(total(CounterId::kMailboxPushes), 0u);
  EXPECT_GT(total(CounterId::kMsgsDrained), 0u);
  EXPECT_GT(total(CounterId::kEventsExecuted), 0u);
  EXPECT_GT(total(CounterId::kSchedulerRounds), 0u);
  EXPECT_GT(total(CounterId::kQuiescencePolls), 0u);
  EXPECT_GT(total(CounterId::kQuiescenceVotes), 0u);
  // Quiescent cluster: all depth gauges drained to zero.
  EXPECT_EQ(snap.total.gauges[static_cast<int>(GaugeId::kMailboxDepth)], 0);
  EXPECT_EQ(snap.total.gauges[static_cast<int>(GaugeId::kSpillDepth)], 0);
  // Kernel registries folded alongside.
  EXPECT_GT(snap.kernel_total.at("kernel.msgs_sent"), 0);

  // The always-on recorder saw mailbox traffic but nothing latched a trigger.
  ASSERT_NE(cluster.flight_recorder(), nullptr);
  EXPECT_FALSE(cluster.flight_recorder()->triggered());
  const std::vector<FlightRecord> merged = cluster.flight_recorder()->Merged();
  EXPECT_FALSE(merged.empty());
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LE(merged[i - 1].t_ns, merged[i].t_ns);
  }

  // Normalized trace: non-empty, time-sorted, every shard present.
  const Tracer normalized = cluster.TotalTraceNormalized();
  const std::vector<TraceEvent>& events = normalized.events();
  ASSERT_FALSE(events.empty());
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts, events[i].ts);
  }
}

TEST_F(ObservabilityIntegrationTest, FailingChaosSeedCarriesDeterministicFlightDump) {
  // Plant the check_test forwarding bug, find a seed that catches it, and
  // confirm the failing run carries a latched, merged flight-recorder window
  // -- the payload chaos_fuzz writes as seed_N.flightrec.* artifacts.  The
  // recorder is stamped with the virtual clock, so two replays of the same
  // seed must dump byte-identically.
  ChaosOptions broken;
  broken.collect_trace = false;
  ChaosScenario failing;
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 64 && !found; ++seed) {
    const ChaosScenario scenario = ScenarioFromSeed(seed);
    if (!scenario.forwarding_mode || scenario.migrations.size() < 4) {
      continue;
    }
    broken.forward_fault = [machines = scenario.machines](Message& msg) {
      msg.receiver.last_known_machine =
          static_cast<MachineId>((msg.receiver.last_known_machine + 1) % machines);
    };
    if (!RunScenario(scenario, broken).ok()) {
      failing = scenario;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "no seed in 1..64 caught the planted forwarding bug";

  const ChaosResult a = RunScenario(failing, broken);
  const ChaosResult b = RunScenario(failing, broken);
  ASSERT_FALSE(a.ok());
  ASSERT_FALSE(a.flight.empty());
  ASSERT_NE(a.flight_trigger, nullptr);
  EXPECT_STREQ(a.flight_trigger, "invariant failure");
  EXPECT_TRUE(std::any_of(a.flight.begin(), a.flight.end(), [](const FlightRecord& r) {
    return r.type == FrEvent::kInvariantFail;
  }));

  std::ostringstream dump_a;
  std::ostringstream dump_b;
  WriteFlightText(a.flight, a.flight_trigger, dump_a);
  WriteFlightText(b.flight, b.flight_trigger, dump_b);
  EXPECT_EQ(dump_a.str(), dump_b.str()) << "flight dump not deterministic across replays";
}

TEST_F(ObservabilityIntegrationTest, DisabledConfigRunsWithNullEngines) {
  ParallelClusterConfig pc;
  pc.machines = 2;
  pc.metrics_enabled = false;
  pc.flight_recorder_enabled = false;
  ParallelCluster cluster(pc);

  TokenRingSpec spec;
  spec.rings = 1;
  spec.nodes_per_ring = 4;
  spec.tokens_per_node = 1;
  spec.hops_per_token = 20;
  const std::vector<TokenRing> rings = BuildTokenRings(cluster, spec);
  ASSERT_FALSE(rings.empty());
  KickTokenRings(cluster, rings, spec.tokens_per_node, spec.hops_per_token);
  EXPECT_TRUE(cluster.RunUntilQuiescent(std::chrono::milliseconds(30000)));
  cluster.RefreshDepthGauges();  // must be a safe no-op
  cluster.Stop();
  EXPECT_EQ(cluster.metrics(), nullptr);
  EXPECT_EQ(cluster.flight_recorder(), nullptr);
}

}  // namespace
}  // namespace demos
