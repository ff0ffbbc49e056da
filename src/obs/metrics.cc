#include "src/obs/metrics.h"

#include <fstream>
#include <ostream>

#include "src/base/bytes.h"

namespace demos {

// ---------------------------------------------------------------------------
// Catalog names.
// ---------------------------------------------------------------------------

const char* CounterName(CounterId id) {
  switch (id) {
    case CounterId::kMailboxPushes:
      return "mailbox_pushes";
    case CounterId::kBackpressureStalls:
      return "backpressure_stalls";
    case CounterId::kSpillRescued:
      return "spill_rescued";
    case CounterId::kSpillDrained:
      return "spill_drained";
    case CounterId::kMsgsDrained:
      return "msgs_drained";
    case CounterId::kDrainBatches:
      return "drain_batches";
    case CounterId::kCondvarParks:
      return "condvar_parks";
    case CounterId::kCondvarNotifies:
      return "condvar_notifies";
    case CounterId::kPostedTasks:
      return "posted_tasks";
    case CounterId::kEventsExecuted:
      return "events_executed";
    case CounterId::kSchedulerRounds:
      return "scheduler_rounds";
    case CounterId::kQuiescencePolls:
      return "quiescence_polls";
    case CounterId::kQuiescenceVotes:
      return "quiescence_votes";
    case CounterId::kRelRetransmits:
      return "rel_retransmits";
    case CounterId::kRelAcksSent:
      return "rel_acks_sent";
    case CounterId::kRelDuplicatesDropped:
      return "rel_duplicates_dropped";
    case CounterId::kRelGiveUps:
      return "rel_give_ups";
    case CounterId::kLbtsWindows:
      return "lbts_windows";
    case CounterId::kSyncFramesClamped:
      return "sync_frames_clamped";
    case CounterId::kSpinIters:
      return "spin_iters";
    case CounterId::kParksAvoided:
      return "parks_avoided";
    case CounterId::kNotifiesElided:
      return "notifies_elided";
    case CounterId::kPoolHits:
      return "pool_hits";
    case CounterId::kPoolMisses:
      return "pool_misses";
    case CounterId::kWideWindowsOpened:
      return "wide_windows_opened";
    case CounterId::kLookaheadShrinks:
      return "lookahead_shrinks";
    case CounterId::kWideFramesClamped:
      return "wide_frames_clamped";
    case CounterId::kNumCounters:
      break;
  }
  return "unknown_counter";
}

const char* GaugeName(GaugeId id) {
  switch (id) {
    case GaugeId::kMailboxDepth:
      return "mailbox_depth";
    case GaugeId::kSpillDepth:
      return "spill_depth";
    case GaugeId::kEventQueueDepth:
      return "event_queue_depth";
    case GaugeId::kLbtsBoundUs:
      return "lbts_bound_us";
    case GaugeId::kNumGauges:
      break;
  }
  return "unknown_gauge";
}

const char* HistogramName(HistogramId id) {
  switch (id) {
    case HistogramId::kDrainBatchSize:
      return "drain_batch_size";
    case HistogramId::kEventsPerRound:
      return "events_per_round";
    case HistogramId::kPushStallSpins:
      return "push_stall_spins";
    case HistogramId::kParkWaitUs:
      return "park_wait_us";
    case HistogramId::kLbtsWindowSpanUs:
      return "lbts_window_span_us";
    case HistogramId::kBatchSize:
      return "batch_size";
    case HistogramId::kNumHistograms:
      break;
  }
  return "unknown_histogram";
}

// ---------------------------------------------------------------------------
// Histograms.
// ---------------------------------------------------------------------------

std::uint64_t HistogramSnapshot::QuantileBound(double q) const {
  if (count == 0) {
    return 0;
  }
  if (q < 0) {
    q = 0;
  }
  if (q > 1) {
    q = 1;
  }
  const auto target = static_cast<std::uint64_t>(q * static_cast<double>(count - 1)) + 1;
  std::uint64_t seen = 0;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    seen += buckets[static_cast<std::size_t>(b)];
    if (seen >= target) {
      return HistogramBucketUpperBound(b);
    }
  }
  return HistogramBucketUpperBound(kHistogramBuckets - 1);
}

HistogramSnapshot MetricShard::Histogram(HistogramId id) const {
  const Hist& h = histograms_[static_cast<std::size_t>(id)];
  HistogramSnapshot out;
  for (int b = 0; b < kHistogramBuckets; ++b) {
    const std::uint64_t n = h.buckets[static_cast<std::size_t>(b)].load(std::memory_order_relaxed);
    out.buckets[static_cast<std::size_t>(b)] = n;
    out.count += n;
  }
  out.sum = h.sum.load(std::memory_order_relaxed);
  return out;
}

// ---------------------------------------------------------------------------
// Snapshots.
// ---------------------------------------------------------------------------

void ShardSnapshot::Merge(const ShardSnapshot& other) {
  for (int i = 0; i < kNumCounterIds; ++i) {
    counters[static_cast<std::size_t>(i)] += other.counters[static_cast<std::size_t>(i)];
  }
  // Gauges are levels, not flows: the cluster-wide level is the sum of the
  // shard levels (total queued items across all mailboxes, etc.).
  for (int i = 0; i < kNumGaugeIds; ++i) {
    gauges[static_cast<std::size_t>(i)] += other.gauges[static_cast<std::size_t>(i)];
  }
  for (int i = 0; i < kNumHistogramIds; ++i) {
    histograms[static_cast<std::size_t>(i)].Merge(other.histograms[static_cast<std::size_t>(i)]);
  }
}

MetricsEngine::MetricsEngine(int shards) {
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<MetricShard>());
  }
}

MetricsSnapshot MetricsEngine::Snapshot() const {
  MetricsSnapshot snap;
  snap.shards.resize(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    ShardSnapshot& dst = snap.shards[s];
    const MetricShard& src = *shards_[s];
    for (int i = 0; i < kNumCounterIds; ++i) {
      dst.counters[static_cast<std::size_t>(i)] = src.Counter(static_cast<CounterId>(i));
    }
    for (int i = 0; i < kNumGaugeIds; ++i) {
      dst.gauges[static_cast<std::size_t>(i)] = src.Gauge(static_cast<GaugeId>(i));
    }
    for (int i = 0; i < kNumHistogramIds; ++i) {
      dst.histograms[static_cast<std::size_t>(i)] = src.Histogram(static_cast<HistogramId>(i));
    }
    snap.total.Merge(dst);
  }
  return snap;
}

MetricsSnapshot BuildSnapshot(const MetricsEngine* engine,
                              const std::vector<const StatsRegistry*>& kernel_stats) {
  MetricsSnapshot snap;
  if (engine != nullptr) {
    snap = engine->Snapshot();
  }
  snap.kernel_counters.resize(kernel_stats.size());
  for (std::size_t i = 0; i < kernel_stats.size(); ++i) {
    if (kernel_stats[i] == nullptr) {
      continue;
    }
    // Canonical v1 names carry the "kernel." prefix (see LegacyAliases).
    for (const auto& [name, value] : kernel_stats[i]->counters()) {
      const std::string canonical = "kernel." + name;
      snap.kernel_counters[i][canonical] = value;
      snap.kernel_total[canonical] += value;
    }
  }
  snap.payload_allocations = PayloadCounters::allocations.load(std::memory_order_relaxed);
  snap.payload_copied_bytes = PayloadCounters::copied_bytes.load(std::memory_order_relaxed);
  return snap;
}

const std::map<std::string, std::string>& LegacyAliases() {
  static const std::map<std::string, std::string>* aliases = [] {
    auto* m = new std::map<std::string, std::string>;
    // StatsRegistry::Dump names -> their demos-metrics-v1 home: the whole
    // counter catalog.
    for (const char* name : kStatNames) {
      (*m)[name] = std::string("kernel.") + name;
    }
    // PayloadCounters statics.
    (*m)["payload_allocations"] = "payload.allocations";
    (*m)["payload_copied_bytes"] = "payload.copied_bytes";
    return m;
  }();
  return *aliases;
}

// ---------------------------------------------------------------------------
// JSON export.  Hand-rolled like trace_export.cc: no JSON dependency.
// ---------------------------------------------------------------------------

namespace {

std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

void WriteShardCounters(const ShardSnapshot& s, std::ostream& os) {
  os << "{";
  for (int i = 0; i < kNumCounterIds; ++i) {
    os << (i == 0 ? "" : ",") << "\"" << CounterName(static_cast<CounterId>(i))
       << "\":" << s.counters[static_cast<std::size_t>(i)];
  }
  os << "}";
}

void WriteShardGauges(const ShardSnapshot& s, std::ostream& os) {
  os << "{";
  for (int i = 0; i < kNumGaugeIds; ++i) {
    os << (i == 0 ? "" : ",") << "\"" << GaugeName(static_cast<GaugeId>(i))
       << "\":" << s.gauges[static_cast<std::size_t>(i)];
  }
  os << "}";
}

void WriteHistogram(const HistogramSnapshot& h, std::ostream& os) {
  os << "{\"count\":" << h.count << ",\"sum\":" << h.sum << ",\"buckets\":[";
  for (int b = 0; b < kHistogramBuckets; ++b) {
    os << (b == 0 ? "" : ",") << h.buckets[static_cast<std::size_t>(b)];
  }
  os << "]}";
}

void WriteShardHistograms(const ShardSnapshot& s, std::ostream& os) {
  os << "{";
  for (int i = 0; i < kNumHistogramIds; ++i) {
    os << (i == 0 ? "" : ",") << "\"" << HistogramName(static_cast<HistogramId>(i)) << "\":";
    WriteHistogram(s.histograms[static_cast<std::size_t>(i)], os);
  }
  os << "}";
}

void WriteStringIntMap(const std::map<std::string, std::int64_t>& m, std::ostream& os) {
  os << "{";
  bool first = true;
  for (const auto& [name, value] : m) {
    os << (first ? "" : ",") << "\"" << JsonEscape(name) << "\":" << value;
    first = false;
  }
  os << "}";
}

void WriteSnapshotObject(const MetricsSnapshot& snap, std::ostream& os) {
  os << "{\"shards\":" << snap.shards.size() << ",";
  os << "\"counters\":{\"total\":";
  WriteShardCounters(snap.total, os);
  os << ",\"per_shard\":[";
  for (std::size_t s = 0; s < snap.shards.size(); ++s) {
    os << (s == 0 ? "" : ",");
    WriteShardCounters(snap.shards[s], os);
  }
  os << "]},\"gauges\":{\"total\":";
  WriteShardGauges(snap.total, os);
  os << ",\"per_shard\":[";
  for (std::size_t s = 0; s < snap.shards.size(); ++s) {
    os << (s == 0 ? "" : ",");
    WriteShardGauges(snap.shards[s], os);
  }
  os << "]},\"histograms\":{\"total\":";
  WriteShardHistograms(snap.total, os);
  os << ",\"per_shard\":[";
  for (std::size_t s = 0; s < snap.shards.size(); ++s) {
    os << (s == 0 ? "" : ",");
    WriteShardHistograms(snap.shards[s], os);
  }
  os << "]},\"kernel\":{\"total\":";
  WriteStringIntMap(snap.kernel_total, os);
  os << ",\"per_shard\":[";
  for (std::size_t s = 0; s < snap.kernel_counters.size(); ++s) {
    os << (s == 0 ? "" : ",");
    WriteStringIntMap(snap.kernel_counters[s], os);
  }
  os << "]},\"payload\":{\"allocations\":" << snap.payload_allocations
     << ",\"copied_bytes\":" << snap.payload_copied_bytes << "}}";
}

}  // namespace

void WriteMetricsJson(const MetricsTimeSeries& series, std::ostream& os) {
  os << "{\"schema\":\"" << kMetricsSchemaV1 << "\",";
  os << "\"histogram_buckets\":[";
  for (int b = 0; b < kHistogramBuckets; ++b) {
    os << (b == 0 ? "" : ",") << HistogramBucketLowerBound(b);
  }
  os << "],";
  os << "\"aliases\":{";
  {
    bool first = true;
    for (const auto& [old_name, new_name] : LegacyAliases()) {
      os << (first ? "" : ",") << "\"" << JsonEscape(old_name) << "\":\"" << JsonEscape(new_name)
         << "\"";
      first = false;
    }
  }
  os << "},";
  os << "\"interval_seconds\":" << series.interval_seconds << ",";
  // Sampled time series: counters + gauges only (histograms are final-only;
  // per-sample bucket arrays would dominate the file for no analytic gain).
  os << "\"series\":[";
  for (std::size_t i = 0; i < series.samples.size(); ++i) {
    const MetricsSample& sample = series.samples[i];
    os << (i == 0 ? "" : ",") << "{\"t\":" << sample.t_seconds << ",\"per_shard\":[";
    for (std::size_t s = 0; s < sample.snapshot.shards.size(); ++s) {
      os << (s == 0 ? "" : ",") << "{\"counters\":";
      WriteShardCounters(sample.snapshot.shards[s], os);
      os << ",\"gauges\":";
      WriteShardGauges(sample.snapshot.shards[s], os);
      os << "}";
    }
    os << "]}";
  }
  os << "],";
  os << "\"final\":";
  WriteSnapshotObject(series.final_snapshot, os);
  os << "}\n";
}

bool WriteMetricsJsonFile(const MetricsTimeSeries& series, const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    return false;
  }
  WriteMetricsJson(series, os);
  return static_cast<bool>(os);
}

void WritePrometheusText(const MetricsSnapshot& snapshot, std::ostream& os) {
  for (int i = 0; i < kNumCounterIds; ++i) {
    const char* name = CounterName(static_cast<CounterId>(i));
    os << "# TYPE demos_" << name << " counter\n";
    for (std::size_t s = 0; s < snapshot.shards.size(); ++s) {
      os << "demos_" << name << "_total{shard=\"" << s
         << "\"} " << snapshot.shards[s].counters[static_cast<std::size_t>(i)] << "\n";
    }
  }
  for (int i = 0; i < kNumGaugeIds; ++i) {
    const char* name = GaugeName(static_cast<GaugeId>(i));
    os << "# TYPE demos_" << name << " gauge\n";
    for (std::size_t s = 0; s < snapshot.shards.size(); ++s) {
      os << "demos_" << name << "{shard=\"" << s
         << "\"} " << snapshot.shards[s].gauges[static_cast<std::size_t>(i)] << "\n";
    }
  }
  for (int i = 0; i < kNumHistogramIds; ++i) {
    const char* name = HistogramName(static_cast<HistogramId>(i));
    const HistogramSnapshot& h = snapshot.total.histograms[static_cast<std::size_t>(i)];
    os << "# TYPE demos_" << name << " histogram\n";
    std::uint64_t cumulative = 0;
    for (int b = 0; b < kHistogramBuckets; ++b) {
      cumulative += h.buckets[static_cast<std::size_t>(b)];
      os << "demos_" << name << "_bucket{le=\"";
      if (b >= kHistogramBuckets - 1) {
        os << "+Inf";
      } else {
        os << HistogramBucketUpperBound(b);
      }
      os << "\"} " << cumulative << "\n";
    }
    os << "demos_" << name << "_sum " << h.sum << "\n";
    os << "demos_" << name << "_count " << h.count << "\n";
  }
  for (const auto& [name, value] : snapshot.kernel_total) {
    // Names arrive canonical ("kernel.msgs_sent"); dots are not legal in
    // Prometheus metric names, so they flatten to underscores.
    std::string flat = name;
    for (char& c : flat) {
      if (c == '.') {
        c = '_';
      }
    }
    os << "demos_" << flat << " " << value << "\n";
  }
  os << "demos_payload_allocations " << snapshot.payload_allocations << "\n";
  os << "demos_payload_copied_bytes " << snapshot.payload_copied_bytes << "\n";
}

// ---------------------------------------------------------------------------
// Sampler.
// ---------------------------------------------------------------------------

void MetricsSampler::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) {
    return;
  }
  stop_ = false;
  running_ = true;
  samples_.clear();
  start_ = std::chrono::steady_clock::now();
  thread_ = std::thread([this] { Loop(); });
}

void MetricsSampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) {
      return;
    }
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
}

void MetricsSampler::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    cv_.wait_for(lock, interval_, [this] { return stop_; });
    if (stop_) {
      break;
    }
    lock.unlock();
    if (collector_) {
      collector_();
    }
    MetricsSample sample;
    sample.t_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
    sample.snapshot = engine_->Snapshot();
    lock.lock();
    samples_.push_back(std::move(sample));
  }
}

MetricsTimeSeries MetricsSampler::TakeSeries(
    const std::vector<const StatsRegistry*>& kernel_stats) {
  Stop();
  MetricsTimeSeries series;
  series.interval_seconds = std::chrono::duration<double>(interval_).count();
  {
    std::lock_guard<std::mutex> lock(mu_);
    series.samples = std::move(samples_);
    samples_.clear();
  }
  series.final_snapshot = BuildSnapshot(engine_, kernel_stats);
  return series;
}

}  // namespace demos
