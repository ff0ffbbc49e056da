#include "src/obs/metrics.h"

#include <fstream>
#include <ostream>

#include "src/base/bytes.h"

namespace demos {

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
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    histograms[i].Merge(other.histograms[i]);
  }
}

MetricsEngine::MetricsEngine(int shards) {
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<MetricShard>());
  }
}

std::vector<ShardLevels> MetricsEngine::Levels() const {
  std::vector<ShardLevels> out(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    for (int i = 0; i < kNumCounterIds; ++i) {
      out[s].counters[static_cast<std::size_t>(i)] = shards_[s]->Counter(static_cast<CounterId>(i));
    }
    for (int i = 0; i < kNumGaugeIds; ++i) {
      out[s].gauges[static_cast<std::size_t>(i)] = shards_[s]->Gauge(static_cast<GaugeId>(i));
    }
  }
  return out;
}

MetricsSnapshot MetricsEngine::Snapshot() const {
  MetricsSnapshot snap;
  const std::vector<ShardLevels> levels = Levels();
  snap.shards.resize(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    ShardSnapshot& dst = snap.shards[s];
    static_cast<ShardLevels&>(dst) = levels[s];
    for (int i = 0; i < kNumHistogramIds; ++i) {
      dst.histograms[static_cast<std::size_t>(i)] =
          shards_[s]->Histogram(static_cast<HistogramId>(i));
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

void WriteShardCounters(const ShardLevels& s, std::ostream& os) {
  os << "{";
  for (int i = 0; i < kNumCounterIds; ++i) {
    os << (i == 0 ? "" : ",") << "\"" << CounterName(static_cast<CounterId>(i))
       << "\":" << s.counters[static_cast<std::size_t>(i)];
  }
  os << "}";
}

void WriteShardGauges(const ShardLevels& s, std::ostream& os) {
  os << "{";
  for (int i = 0; i < kNumGaugeIds; ++i) {
    os << (i == 0 ? "" : ",") << "\"" << GaugeName(static_cast<GaugeId>(i))
       << "\":" << s.gauges[static_cast<std::size_t>(i)];
  }
  os << "}";
}

// Non-empty buckets only, as [bucket index, count] pairs in index order.
void WriteHistogram(const HistogramSnapshot& h, std::ostream& os) {
  os << "{\"count\":" << h.count << ",\"sum\":" << h.sum << ",\"min\":"
     << (h.count == 0 ? 0 : h.min) << ",\"max\":" << h.max << ",\"buckets\":[";
  const char* sep = "";
  for (int b = 0; b < kHistogramBuckets; ++b) {
    if (const std::uint64_t n = h.buckets[static_cast<std::size_t>(b)]; n != 0) {
      os << sep << "[" << b << "," << n << "]";
      sep = ",";
    }
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
  os << "{\"schema\":\"" << kMetricsSchema << "\",";
  os << "\"histogram_buckets\":[";
  for (int b = 0; b < kHistogramBuckets; ++b) {
    os << (b == 0 ? "" : ",") << HistogramBucketLowerBound(b);
  }
  os << "],";
  os << "\"interval_seconds\":" << series.interval_seconds << ",";
  // Sampled time series: counters + gauges only (histograms are final-only;
  // per-sample bucket arrays would dominate the file for no analytic gain).
  os << "\"series\":[";
  for (std::size_t i = 0; i < series.samples.size(); ++i) {
    const MetricsSample& sample = series.samples[i];
    os << (i == 0 ? "" : ",") << "{\"t\":" << sample.t_seconds << ",\"per_shard\":[";
    for (std::size_t s = 0; s < sample.shards.size(); ++s) {
      os << (s == 0 ? "" : ",") << "{\"counters\":";
      WriteShardCounters(sample.shards[s], os);
      os << ",\"gauges\":";
      WriteShardGauges(sample.shards[s], os);
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
    // Cumulative counts at the upper bound of each non-empty bucket.
    std::uint64_t cumulative = 0;
    for (int b = 0; b < kHistogramBuckets - 1; ++b) {
      if (const std::uint64_t n = h.buckets[static_cast<std::size_t>(b)]; n != 0) {
        cumulative += n;
        os << "demos_" << name << "_bucket{le=\""
           << HistogramBucketLowerBound(b) + HistogramBucketWidth(b) - 1 << "\"} " << cumulative
           << "\n";
      }
    }
    os << "demos_" << name << "_bucket{le=\"+Inf\"} " << h.count << "\n";
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
    sample.shards = engine_->Levels();
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
