// Shard-local runtime metrics engine (counters, gauges, fixed-bucket
// histograms) for the parallel execution engine and the chaos harness.
//
// Design rules, in order:
//   - No shared cache lines on the hot path.  Each shard owns one
//     cache-line-aligned MetricShard slab; the owning thread is the only
//     writer (relaxed atomic add/store, which on x86 compiles to a plain
//     locked add on memory no other core touches).  Readers -- the periodic
//     sampler and end-of-run snapshots -- do relaxed loads at any time, so a
//     snapshot taken mid-run is a coherent-enough point-in-time view without
//     a single lock anywhere.
//   - No string lookups on the hot path.  The metric catalog is a fixed enum
//     (CounterId/GaugeId/HistogramId); names exist only at export time.
//     (The kernels' StatsRegistry follows the same rule with its own StatId
//     catalog, folded in below under a "kernel." prefix.)
//   - One snapshot API.  BuildSnapshot() folds the legacy sources -- the
//     kernels' StatsRegistry counters and the process-wide PayloadCounters --
//     into the same MetricsSnapshot, so exporters emit one coherent view and
//     nothing is double-counted.  The legacy dump entry points remain as
//     aliases for one release (see LegacyAliases()).
//
// Exports: demos-metrics-v1 JSON (final snapshot + optional sampled time
// series) and a Prometheus-style text exposition.  docs/OBSERVABILITY.md is
// the metric catalog; keep it in sync with the enums below.

#ifndef DEMOS_OBS_METRICS_H_
#define DEMOS_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/base/stats.h"

namespace demos {

// ---------------------------------------------------------------------------
// Metric catalog.  Append-only within a release; exporters and
// docs/OBSERVABILITY.md key off these enums and their names.
// ---------------------------------------------------------------------------

enum class CounterId : int {
  // ShardRouter / mailbox hot path.
  kMailboxPushes = 0,     // messages pushed toward this shard's peers
  kBackpressureStalls,    // pushes that found the destination ring full
  kSpillRescued,          // messages moved from the own ring into the spill queue
  kSpillDrained,          // messages consumed out of the spill queue
  kMsgsDrained,           // mailbox messages handled by this shard
  kDrainBatches,          // Drain() calls that handled at least one message
  kCondvarParks,          // times the shard parked on its condvar
  kCondvarNotifies,       // notify_one calls aimed at this shard
  // ParallelCluster scheduling loop.
  kPostedTasks,           // Post() closures executed on this shard
  kEventsExecuted,        // EventQueue events dispatched on this shard
  kSchedulerRounds,       // drain+posted+events rounds that did any work
  // Quiescence detection (coordinator shard slot only).
  kQuiescencePolls,       // snapshots taken by RunUntilQuiescent
  kQuiescenceVotes,       // snapshots that looked quiet
  // ReliableChannel (sequential/lossy engine).
  kRelRetransmits,
  kRelAcksSent,
  kRelDuplicatesDropped,
  kRelGiveUps,
  // Conservative virtual-time sync (src/run/virtual_time.h).
  kLbtsWindows,        // windows opened by the coordinator (coordinator slot)
  kSyncFramesClamped,  // cross-shard frames whose arrival was clamped to the
                       // receiver's clock (0 in a correctly bounded run)
  // Idle protocol (adaptive spin-then-park) and allocation pools.
  kSpinIters,          // poll iterations spent in IdleWait spin windows
  kParksAvoided,       // spin windows that found work before parking
  kNotifiesElided,     // publishes that skipped notify: consumer already awake
  kPoolHits,           // pooled allocations served from a free-list
  kPoolMisses,         // pooled allocations that fell back to the heap
  // Adaptive lookahead (relaxed LBTS windows; src/run/virtual_time.h).
  kWideWindowsOpened,  // windows opened wider than the static bound (coordinator slot)
  kLookaheadShrinks,   // learned-lookahead walk-backs: a shorter send gap or a
                       // tight collapse shrank the published estimate
  kWideFramesClamped,  // arrivals clamped to the receiver's clock after a wide
                       // window opened -- the bounded, expected residue of
                       // relaxed timing (sync_frames_clamped stays the strict
                       // zero-invariant for never-widened runs)
  kNumCounters,
};

enum class GaugeId : int {
  kMailboxDepth = 0,  // items sitting in this shard's mailbox ring
  kSpillDepth,        // items sitting in this shard's spill queue
  kEventQueueDepth,   // pending events on this shard's virtual clock
  kLbtsBoundUs,       // current window bound in virtual us (coordinator slot)
  kNumGauges,
};

enum class HistogramId : int {
  kDrainBatchSize = 0,  // messages handled per non-empty Drain()
  kEventsPerRound,      // event-queue steps per scheduling round
  kPushStallSpins,      // producer spin laps per backpressured push
  kParkWaitUs,          // real microseconds spent parked per park
  kLbtsWindowSpanUs,    // virtual us a sync window advanced the bound by
  kBatchSize,           // frames per published destination batch
  kNumHistograms,
};

inline constexpr int kNumCounterIds = static_cast<int>(CounterId::kNumCounters);
inline constexpr int kNumGaugeIds = static_cast<int>(GaugeId::kNumGauges);
inline constexpr int kNumHistogramIds = static_cast<int>(HistogramId::kNumHistograms);

const char* CounterName(CounterId id);
const char* GaugeName(GaugeId id);
const char* HistogramName(HistogramId id);

// ---------------------------------------------------------------------------
// Fixed-bucket histograms: power-of-two buckets so Observe() is a bit_width
// and one relaxed add.  Bucket 0 holds value 0, bucket i (i >= 1) holds
// values in [2^(i-1), 2^i - 1], and the last bucket absorbs the tail.
// ---------------------------------------------------------------------------

inline constexpr int kHistogramBuckets = 20;

inline int HistogramBucketOf(std::uint64_t value) {
  const int b = static_cast<int>(std::bit_width(value));
  return b < kHistogramBuckets ? b : kHistogramBuckets - 1;
}

// Inclusive lower bound of bucket `b` (0, 1, 2, 4, 8, ...).
inline std::uint64_t HistogramBucketLowerBound(int b) {
  return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
}

// Inclusive upper bound of bucket `b`; the last bucket is unbounded
// (UINT64_MAX stands in for +inf in exports).
inline std::uint64_t HistogramBucketUpperBound(int b) {
  if (b == 0) {
    return 0;
  }
  if (b >= kHistogramBuckets - 1) {
    return ~std::uint64_t{0};
  }
  return (std::uint64_t{1} << b) - 1;
}

struct HistogramSnapshot {
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  void Merge(const HistogramSnapshot& other) {
    for (int i = 0; i < kHistogramBuckets; ++i) {
      buckets[static_cast<std::size_t>(i)] += other.buckets[static_cast<std::size_t>(i)];
    }
    count += other.count;
    sum += other.sum;
  }
  double Mean() const { return count == 0 ? 0.0 : static_cast<double>(sum) / count; }
  // Upper bound of the bucket containing the q-th quantile (q in [0,1]).
  std::uint64_t QuantileBound(double q) const;
};

// ---------------------------------------------------------------------------
// Per-shard slab.  Single writer (the owning shard thread), any reader.
// ---------------------------------------------------------------------------

class alignas(64) MetricShard {
 public:
  void Inc(CounterId id, std::uint64_t delta = 1) {
    counters_[static_cast<std::size_t>(id)].fetch_add(delta, std::memory_order_relaxed);
  }
  void Set(GaugeId id, std::int64_t value) {
    gauges_[static_cast<std::size_t>(id)].store(value, std::memory_order_relaxed);
  }
  void Observe(HistogramId id, std::uint64_t value) {
    Hist& h = histograms_[static_cast<std::size_t>(id)];
    h.buckets[static_cast<std::size_t>(HistogramBucketOf(value))].fetch_add(
        1, std::memory_order_relaxed);
    h.sum.fetch_add(value, std::memory_order_relaxed);
  }

  std::uint64_t Counter(CounterId id) const {
    return counters_[static_cast<std::size_t>(id)].load(std::memory_order_relaxed);
  }
  std::int64_t Gauge(GaugeId id) const {
    return gauges_[static_cast<std::size_t>(id)].load(std::memory_order_relaxed);
  }
  HistogramSnapshot Histogram(HistogramId id) const;

 private:
  struct Hist {
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
    std::atomic<std::uint64_t> sum{0};
  };

  std::array<std::atomic<std::uint64_t>, kNumCounterIds> counters_{};
  std::array<std::atomic<std::int64_t>, kNumGaugeIds> gauges_{};
  std::array<Hist, kNumHistogramIds> histograms_{};
};

// ---------------------------------------------------------------------------
// Snapshots.
// ---------------------------------------------------------------------------

struct ShardSnapshot {
  std::array<std::uint64_t, kNumCounterIds> counters{};
  std::array<std::int64_t, kNumGaugeIds> gauges{};
  std::array<HistogramSnapshot, kNumHistogramIds> histograms{};

  void Merge(const ShardSnapshot& other);
};

struct MetricsSnapshot {
  // Runtime metrics, index = shard (the last slot may be the coordinator).
  std::vector<ShardSnapshot> shards;
  ShardSnapshot total;

  // Folded legacy sources: the kernels' StatsRegistry counters (index =
  // shard; totals merged) and the process-wide payload-pipeline counters.
  std::vector<std::map<std::string, std::int64_t>> kernel_counters;
  std::map<std::string, std::int64_t> kernel_total;
  std::uint64_t payload_allocations = 0;
  std::uint64_t payload_copied_bytes = 0;
};

// ---------------------------------------------------------------------------
// Engine: one MetricShard per shard, merged on snapshot.
// ---------------------------------------------------------------------------

class MetricsEngine {
 public:
  explicit MetricsEngine(int shards);

  MetricShard& shard(int i) { return *shards_[static_cast<std::size_t>(i)]; }
  const MetricShard& shard(int i) const { return *shards_[static_cast<std::size_t>(i)]; }
  int shards() const { return static_cast<int>(shards_.size()); }

  // Runtime metrics only (no legacy folding); safe while writers run.
  MetricsSnapshot Snapshot() const;

 private:
  // unique_ptr per slab keeps each MetricShard on its own cache lines even if
  // the vector reallocates; slabs never move once created.
  std::vector<std::unique_ptr<MetricShard>> shards_;
};

// The one snapshot API: runtime metrics plus the folded legacy sources.
// `kernel_stats[i]` is shard i's StatsRegistry (null entries skipped); extra
// registries (network, reliable channel) can be appended past the shard
// count and land in the totals only.  `engine` may be null (legacy-only
// snapshot, used by benches that have no parallel runtime).
MetricsSnapshot BuildSnapshot(const MetricsEngine* engine,
                              const std::vector<const StatsRegistry*>& kernel_stats = {});

// Old dump name -> canonical demos-metrics-v1 name, for every legacy counter
// that the fold renames (every StatId catalog name gains a "kernel." prefix,
// payload counters a "payload." prefix).  Kept for one release so dashboards keyed on
// the old StatsRegistry::Dump names can migrate.
const std::map<std::string, std::string>& LegacyAliases();

// ---------------------------------------------------------------------------
// demos-metrics-v1 export.
// ---------------------------------------------------------------------------

inline constexpr const char* kMetricsSchemaV1 = "demos-metrics-v1";

struct MetricsSample {
  double t_seconds = 0;  // since sampler start
  MetricsSnapshot snapshot;
};

struct MetricsTimeSeries {
  double interval_seconds = 0;
  std::vector<MetricsSample> samples;
  MetricsSnapshot final_snapshot;
};

// Stable JSON: schema tag, shard count, final per-shard + total counters,
// gauges, histograms (bucket bounds included), folded kernel/payload
// counters, the legacy alias map, and the sampled time series.
void WriteMetricsJson(const MetricsTimeSeries& series, std::ostream& os);
bool WriteMetricsJsonFile(const MetricsTimeSeries& series, const std::string& path);

// Prometheus text exposition (one final snapshot; counters as _total with a
// shard label, gauges plain, histograms in cumulative-bucket form).
void WritePrometheusText(const MetricsSnapshot& snapshot, std::ostream& os);

// ---------------------------------------------------------------------------
// Periodic sampler: a background thread snapshotting the engine every
// `interval` while running.  The optional collector runs on the sampler
// thread just before each snapshot -- use it to refresh gauges that must be
// polled from outside the shard threads (mailbox depth, spill depth).  It
// must only touch cross-thread-safe state.
// ---------------------------------------------------------------------------

class MetricsSampler {
 public:
  MetricsSampler(const MetricsEngine* engine,
                 std::chrono::milliseconds interval = std::chrono::milliseconds(10))
      : engine_(engine), interval_(interval) {}
  ~MetricsSampler() { Stop(); }

  MetricsSampler(const MetricsSampler&) = delete;
  MetricsSampler& operator=(const MetricsSampler&) = delete;

  void SetCollector(std::function<void()> collector) { collector_ = std::move(collector); }

  void Start();
  // Stop the thread and take one final sample (idempotent).
  void Stop();

  // Also folds legacy sources into the final snapshot of the returned series.
  MetricsTimeSeries TakeSeries(const std::vector<const StatsRegistry*>& kernel_stats = {});

 private:
  void Loop();

  const MetricsEngine* engine_;
  std::chrono::milliseconds interval_;
  std::function<void()> collector_;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool running_ = false;
  std::chrono::steady_clock::time_point start_{};
  std::vector<MetricsSample> samples_;  // guarded by mu_ while running
};

}  // namespace demos

#endif  // DEMOS_OBS_METRICS_H_
