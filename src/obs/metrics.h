// Shard-local runtime metrics engine (counters, gauges, histograms) for the
// parallel execution engine and the chaos harness.
//
// Design rules, in order:
//   - No shared cache lines and no locked instructions on the hot path.
//     Each shard owns one cache-line-aligned MetricShard slab; the owning
//     thread is its only writer, so an update is a relaxed load + store on
//     memory no other core touches.  The one counter a foreign thread bumps,
//     condvar_notifies (written by whoever wakes the shard), goes through
//     IncShared, a locked add.  Readers -- the periodic sampler and
//     end-of-run snapshots -- do relaxed loads at any time, so a snapshot
//     taken mid-run is a coherent-enough point-in-time view without a
//     single lock anywhere.
//   - No string lookups on the hot path.  The metric catalogs below are
//     X-macro lists, one entry per metric with its export name; the enums
//     and the name tables are generated from them, as StatId is from
//     DEMOS_STAT_CATALOG.
//   - One histogram type.  Slab histograms are the log-linear
//     HistogramSnapshot of src/base/histogram.h, the same type StatsRegistry
//     and BuildTraceStats record into.
//   - One home per counter.  BuildSnapshot() puts the kernels'
//     StatsRegistry counters (and, for the sequential engine, the reliable
//     transport's rel_* counters) under a "kernel." prefix and the
//     process-wide PayloadCounters under "payload."; no catalog name below
//     repeats a StatsRegistry name, so nothing is counted twice.
//
// Exports: demos-metrics-v2 JSON (final snapshot + optional sampled time
// series) and a Prometheus-style text exposition.  docs/OBSERVABILITY.md is
// the metric catalog; keep it in sync with the catalogs below.

#ifndef DEMOS_OBS_METRICS_H_
#define DEMOS_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cassert>
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

#include "src/base/histogram.h"
#include "src/base/stats.h"

namespace demos {

// ---------------------------------------------------------------------------
// Metric catalog.  Append-only within a release; exporters and
// docs/OBSERVABILITY.md key off these enums and their names.
// ---------------------------------------------------------------------------

#define DEMOS_COUNTER_CATALOG(X)                                                           \
  /* ShardRouter / mailbox hot path. */                                                    \
  X(kMailboxPushes, "mailbox_pushes")           /* messages pushed toward peers */         \
  X(kBackpressureStalls, "backpressure_stalls") /* pushes that found a full ring */        \
  X(kSpillRescued, "spill_rescued")             /* own-ring messages moved to the spill */ \
  X(kSpillDrained, "spill_drained")             /* messages consumed out of the spill */   \
  X(kMsgsDrained, "msgs_drained")               /* mailbox messages handled */             \
  X(kDrainBatches, "drain_batches")             /* Drain() calls that handled >= 1 */      \
  X(kCondvarParks, "condvar_parks")             /* times the shard parked */               \
  X(kCondvarNotifies, "condvar_notifies")       /* notify_one calls aimed at it */         \
  /* ParallelCluster scheduling loop. */                                                   \
  X(kPostedTasks, "posted_tasks")               /* Post() closures executed */             \
  X(kEventsExecuted, "events_executed")         /* EventQueue events dispatched */         \
  X(kSchedulerRounds, "scheduler_rounds")       /* rounds that did any work */             \
  /* Conservative virtual-time sync (src/run/virtual_time.h). */                           \
  X(kLbtsWindows, "lbts_windows")               /* windows opened (window slot) */         \
  /* Cross-shard frames clamped to the receiver's clock (0 when bounded). */               \
  X(kSyncFramesClamped, "sync_frames_clamped")                                             \
  /* Idle protocol (adaptive spin-then-park) and allocation pools. */                      \
  X(kSpinIters, "spin_iters")                   /* IdleWait spin poll iterations */        \
  X(kParksAvoided, "parks_avoided")             /* spin windows that found work */         \
  X(kNotifiesElided, "notifies_elided")         /* publishes to an awake consumer */       \
  X(kPoolHits, "pool_hits")                     /* pooled allocations from a free-list */  \
  X(kPoolMisses, "pool_misses")                 /* pooled allocations from the heap */     \
  /* Wide windows (relaxed LBTS windows; src/run/virtual_time.h). */                       \
  X(kWideWindowsOpened, "wide_windows_opened")  /* span wider than the link latency */     \
  X(kLookaheadShrinks, "lookahead_shrinks")     /* retired: always 0 */                    \
  /* Clamped arrivals after a wide window: the expected residue of relaxed */              \
  /* timing (sync_frames_clamped stays the zero-invariant otherwise). */                   \
  X(kWideFramesClamped, "wide_frames_clamped")

#define DEMOS_GAUGE_CATALOG(X)                                                       \
  X(kMailboxDepth, "mailbox_depth")             /* items in the mailbox ring */      \
  X(kSpillDepth, "spill_depth")                 /* items in the spill queue */       \
  X(kEventQueueDepth, "event_queue_depth")      /* pending virtual-clock events */   \
  X(kLbtsBoundUs, "lbts_bound_us")              /* window bound, window slot */

#define DEMOS_HISTOGRAM_CATALOG(X)                                                     \
  X(kDrainBatchSize, "drain_batch_size")        /* messages per non-empty Drain() */   \
  X(kEventsPerRound, "events_per_round")        /* event steps per scheduling round */ \
  X(kPushStallSpins, "push_stall_spins")        /* spin laps per backpressured push */ \
  X(kParkWaitUs, "park_wait_us")                /* real us parked per park */          \
  X(kLbtsWindowSpanUs, "lbts_window_span_us")   /* virtual us a window advanced */     \
  X(kBatchSize, "batch_size")                   /* frames per published batch */

#define DEMOS_METRIC_ENUMERATOR(id, name) id,
enum class CounterId : int { DEMOS_COUNTER_CATALOG(DEMOS_METRIC_ENUMERATOR) kNumCounters };
enum class GaugeId : int { DEMOS_GAUGE_CATALOG(DEMOS_METRIC_ENUMERATOR) kNumGauges };
enum class HistogramId : int { DEMOS_HISTOGRAM_CATALOG(DEMOS_METRIC_ENUMERATOR) kNumHistograms };
#undef DEMOS_METRIC_ENUMERATOR

inline constexpr int kNumCounterIds = static_cast<int>(CounterId::kNumCounters);
inline constexpr int kNumGaugeIds = static_cast<int>(GaugeId::kNumGauges);
inline constexpr int kNumHistogramIds = static_cast<int>(HistogramId::kNumHistograms);

#define DEMOS_METRIC_NAME(id, name) name,
inline constexpr std::array<const char*, kNumCounterIds> kCounterNames = {
    DEMOS_COUNTER_CATALOG(DEMOS_METRIC_NAME)};
inline constexpr std::array<const char*, kNumGaugeIds> kGaugeNames = {
    DEMOS_GAUGE_CATALOG(DEMOS_METRIC_NAME)};
inline constexpr std::array<const char*, kNumHistogramIds> kHistogramNames = {
    DEMOS_HISTOGRAM_CATALOG(DEMOS_METRIC_NAME)};
#undef DEMOS_METRIC_NAME

inline const char* CounterName(CounterId id) {
  return kCounterNames[static_cast<std::size_t>(id)];
}
inline const char* GaugeName(GaugeId id) { return kGaugeNames[static_cast<std::size_t>(id)]; }
inline const char* HistogramName(HistogramId id) {
  return kHistogramNames[static_cast<std::size_t>(id)];
}

// ---------------------------------------------------------------------------
// Per-shard slab.  Single writer (the owning shard thread, or for the window
// slot whichever closer holds the closers' mutex), any reader.  Inc and
// Observe are a relaxed load + store: two writers at once would lose updates.
// ---------------------------------------------------------------------------

class alignas(64) MetricShard {
 public:
  void Inc(CounterId id, std::uint64_t delta = 1) {
    std::atomic<std::uint64_t>& counter = counters_[static_cast<std::size_t>(id)];
    counter.store(counter.load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
  }
  // Any thread: a locked add, for the one counter written from outside its
  // shard (condvar_notifies).  A counter is written through Inc or through
  // IncShared, never both.
  void IncShared(CounterId id, std::uint64_t delta = 1) {
    assert(id == CounterId::kCondvarNotifies);
    counters_[static_cast<std::size_t>(id)].fetch_add(delta, std::memory_order_relaxed);
  }
  void Set(GaugeId id, std::int64_t value) {
    gauges_[static_cast<std::size_t>(id)].store(value, std::memory_order_relaxed);
  }
  void Observe(HistogramId id, std::uint64_t value) {
    histograms_[static_cast<std::size_t>(id)].OwnerRecord(value);
  }

  std::uint64_t Counter(CounterId id) const {
    return counters_[static_cast<std::size_t>(id)].load(std::memory_order_relaxed);
  }
  std::int64_t Gauge(GaugeId id) const {
    return gauges_[static_cast<std::size_t>(id)].load(std::memory_order_relaxed);
  }
  HistogramSnapshot Histogram(HistogramId id) const {
    return histograms_[static_cast<std::size_t>(id)].AtomicLoad();
  }

 private:
  std::array<std::atomic<std::uint64_t>, kNumCounterIds> counters_{};
  std::array<std::atomic<std::int64_t>, kNumGaugeIds> gauges_{};
  std::array<HistogramSnapshot, kNumHistogramIds> histograms_{};  // atomic access only
};

// ---------------------------------------------------------------------------
// Snapshots.
// ---------------------------------------------------------------------------

// Counters and gauges of one slab: all a sampled time-series point carries.
struct ShardLevels {
  std::array<std::uint64_t, kNumCounterIds> counters{};
  std::array<std::int64_t, kNumGaugeIds> gauges{};
};

struct ShardSnapshot : ShardLevels {
  std::array<HistogramSnapshot, kNumHistogramIds> histograms{};

  void Merge(const ShardSnapshot& other);
};

struct MetricsSnapshot {
  // Runtime metrics, index = shard (the last is the shared harness/window slot).
  std::vector<ShardSnapshot> shards;
  ShardSnapshot total;

  // StatsRegistry counters under a "kernel." prefix (index = registry;
  // totals merged) and the process-wide payload-pipeline counters.
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

  // Runtime metrics only (no StatsRegistry counters); safe while writers run.
  MetricsSnapshot Snapshot() const;
  // Counters and gauges of every slab, for the sampled time series.
  std::vector<ShardLevels> Levels() const;

 private:
  // unique_ptr per slab keeps each MetricShard on its own cache lines even if
  // the vector reallocates; slabs never move once created.
  std::vector<std::unique_ptr<MetricShard>> shards_;
};

// The one snapshot API: runtime metrics plus the StatsRegistry and payload
// counters.  `kernel_stats[i]` becomes kernel_counters[i] (null entries
// skipped): the kernels in machine order, then any extra registry the engine
// owns (the sequential engine's reliable transport).  `engine` may be null
// (registry-only snapshot, used by benches that have no metrics engine).
MetricsSnapshot BuildSnapshot(const MetricsEngine* engine,
                              const std::vector<const StatsRegistry*>& kernel_stats = {});

// ---------------------------------------------------------------------------
// demos-metrics-v2 export.
// ---------------------------------------------------------------------------

inline constexpr const char* kMetricsSchema = "demos-metrics-v2";

struct MetricsSample {
  double t_seconds = 0;             // since sampler start
  std::vector<ShardLevels> shards;  // index = shard
};

struct MetricsTimeSeries {
  double interval_seconds = 0;
  std::vector<MetricsSample> samples;
  MetricsSnapshot final_snapshot;
};

// Stable JSON: schema tag, the histogram bucket layout, shard count, final
// per-shard + total counters, gauges and histograms (non-empty buckets
// only), kernel/payload counters, and the sampled time series.
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

  // The final snapshot of the returned series also carries `kernel_stats`.
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
