// The kernel, network and transport counters behind the paper's cost
// accounting (Sec. 6): administrative message counts, forwarded message
// overhead, bytes moved per migration, link-update traffic, ...
//
// Each Kernel, SimNetwork and ReliableTransport owns one StatSlab.  Benches
// and tests read the slabs after a run (Engine::TotalStats sums the
// kernels'), and BuildSnapshot exports them under a "kernel." prefix.

#ifndef DEMOS_BASE_STATS_H_
#define DEMOS_BASE_STATS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>

#include "src/base/histogram.h"
#include "src/base/owner_add.h"

namespace demos {

// The counter catalog: every statically named counter, listed once with its
// export name.  StatId indexes a fixed slot array, so the hot-path Add() takes
// no string and no lock; names are used only at the edges (Get/TotalStat by
// name, counters(), Dump).  The stat::k* string constants below are
// generated from the same list for readers that key on names.
#define DEMOS_STAT_CATALOG(X)                                     \
  /* Kernel message system and migration (Sec. 2-6). */           \
  X(kMsgsSent, "msgs_sent")                                       \
  X(kMsgsDelivered, "msgs_delivered")                             \
  X(kMsgsForwarded, "msgs_forwarded")                             \
  X(kMsgsBounced, "msgs_bounced")                                 \
  X(kLinkUpdateMsgs, "link_update_msgs")                          \
  X(kLinksPatched, "links_patched")                               \
  X(kAdminMsgs, "admin_msgs")                                     \
  X(kAdminBytes, "admin_bytes")                                   \
  X(kDataPackets, "data_packets")                                 \
  X(kDataBytes, "data_bytes")                                     \
  X(kDataAcks, "data_acks")                                       \
  X(kMigrations, "migrations")                                    \
  X(kMigrationsOut, "migrations_out")                             \
  X(kMigrationsNoop, "migrations_noop")                           \
  X(kMigrationsRefused, "migrations_refused")                     \
  X(kMigrationsTimedOut, "migrations_timed_out")                  \
  X(kMigrationsReaped, "migrations_reaped")                       \
  X(kMigrationsAdopted, "migrations_adopted")                     \
  X(kMigrationsRefusedSuspect, "migrations_refused_suspect")      \
  X(kPeersSuspected, "peers_suspected")                           \
  X(kStaleMigrationMsgs, "migrations_stale_msgs")                 \
  X(kPendingForwarded, "pending_forwarded")                       \
  X(kForwardingAddresses, "forwarding_addresses")                 \
  X(kForwardingSuperseded, "forwarding_superseded")               \
  X(kForwardingExpired, "forwarding_expired")                     \
  X(kForwardingCleared, "forwarding_cleared")                     \
  X(kWireBytesSent, "wire_bytes_sent")                            \
  X(kDeliverToKernelMsgs, "deliver_to_kernel_msgs")               \
  /* Churn-proof addressing: GC, chain collapse, gossip. */       \
  X(kFwdRecordsLive, "fwd_records_live")                          \
  X(kFwdReclaimed, "fwd_reclaimed")                               \
  X(kGcRerouted, "gc_rerouted")                                   \
  X(kChainCollapses, "chain_collapses")                           \
  X(kChainCollapseApplied, "chain_collapse_applied")              \
  X(kLinkUpdateAcks, "link_update_acks")                          \
  X(kGossipRounds, "gossip_rounds")                               \
  X(kGossipRumors, "gossip_rumors")                               \
  X(kGossipAdvanced, "gossip_advanced")                           \
  X(kTombstonesReclaimed, "tombstones_reclaimed")                 \
  X(kLocateRetries, "locate_retries")                             \
  X(kLocateGaveUp, "locate_gave_up")                              \
  X(kGossipReroutes, "gossip_reroutes")                           \
  X(kSendsRefused, "sends_refused")                               \
  /* SimNetwork (src/net/sim_network.h). */                       \
  X(kNetPacketsSent, "net_packets_sent")                          \
  X(kNetPacketsDropped, "net_packets_dropped")                    \
  X(kNetPacketsDuplicated, "net_packets_duplicated")              \
  X(kNetBytesSent, "net_bytes_sent")                              \
  X(kNetLocalDeliveries, "net_local_deliveries")                  \
  /* ReliableTransport (src/net/reliable_channel.h). */           \
  X(kRelRetransmits, "rel_retransmits")                           \
  X(kRelAcksSent, "rel_acks_sent")                                \
  X(kRelDuplicatesDropped, "rel_duplicates_dropped")              \
  X(kRelGiveUps, "rel_give_ups")

// The kernel's size distributions: the payload of every migration
// administrative message, and the three sections each migration moves.
#define DEMOS_STAT_HISTOGRAM_CATALOG(X)             \
  X(kAdminPayloadBytes, "admin_payload_bytes")     \
  X(kResidentStateBytes, "resident_state_bytes")   \
  X(kSwappableStateBytes, "swappable_state_bytes") \
  X(kMemoryImageBytes, "memory_image_bytes")

enum class StatId : std::uint8_t {
#define DEMOS_STAT_ENUMERATOR(id, name) id,
  DEMOS_STAT_CATALOG(DEMOS_STAT_ENUMERATOR)
  kNumStats,
};
enum class StatHistogramId : std::uint8_t {
  DEMOS_STAT_HISTOGRAM_CATALOG(DEMOS_STAT_ENUMERATOR) kNumStatHistograms,
#undef DEMOS_STAT_ENUMERATOR
};

inline constexpr std::size_t kNumStatIds = static_cast<std::size_t>(StatId::kNumStats);
inline constexpr std::size_t kNumStatHistogramIds =
    static_cast<std::size_t>(StatHistogramId::kNumStatHistograms);

#define DEMOS_STAT_EXPORT_NAME(id, name) name,
inline constexpr std::array<const char*, kNumStatIds> kStatNames = {
    DEMOS_STAT_CATALOG(DEMOS_STAT_EXPORT_NAME)};
inline constexpr std::array<const char*, kNumStatHistogramIds> kStatHistogramNames = {
    DEMOS_STAT_HISTOGRAM_CATALOG(DEMOS_STAT_EXPORT_NAME)};
#undef DEMOS_STAT_EXPORT_NAME

// Catalog entry for an export name, or nullopt for a name outside it.
inline std::optional<StatId> FindStat(std::string_view name) {
  for (std::size_t i = 0; i < kNumStatIds; ++i) {
    if (name == kStatNames[i]) {
      return static_cast<StatId>(i);
    }
  }
  return std::nullopt;
}

// One line per histogram, in name order: n, mean, min, p50/p95/p99, max.
inline void DumpHistograms(const std::map<std::string, HistogramSnapshot>& histograms,
                           std::ostream& os) {
  for (const auto& [name, h] : histograms) {
    os << "  " << name << ": n=" << h.count << " mean=" << h.Mean() << " min=" << h.min
       << " p50=" << h.Percentile(50) << " p95=" << h.Percentile(95)
       << " p99=" << h.Percentile(99) << " max=" << h.max << "\n";
  }
}

// Counters and histograms of any number of slabs, summed by export name: what
// Engine::TotalStats returns.  A plain value, taken once the writers are
// quiescent.
struct StatTotals {
  std::map<std::string, std::int64_t> counters;         // touched in any slab
  std::map<std::string, HistogramSnapshot> histograms;  // sampled in any slab

  // Human-readable report: sorted counters, then histogram summaries.
  // Shared by benches, examples, and debugging sessions so the format cannot
  // drift between them.
  void Dump(std::ostream& os) const {
    for (const auto& [name, value] : counters) {
      os << "  " << name << " = " << value << "\n";
    }
    DumpHistograms(histograms, os);
  }
};

// One component's counters and histograms, in the single-writer slab form of
// MetricShard (src/obs/metrics.h).  The owning thread -- the kernel's shard
// in the parallel engine, the one event loop in the sequential one -- is the
// only writer: Add is an OwnerAdd plus a "touched" flag, Record an
// OwnerRecord.  Readers (end-of-run totals, the metrics sampler's snapshot)
// load at any time.  A second writing thread would lose counts silently.
class StatSlab {
 public:
  StatSlab() = default;
  StatSlab(const StatSlab&) = delete;
  StatSlab& operator=(const StatSlab&) = delete;
  ~StatSlab() { delete histograms_.load(std::memory_order_relaxed); }

  void Add(StatId id, std::int64_t delta = 1) {
    Slot& slot = slots_[static_cast<std::size_t>(id)];
    OwnerAdd(slot.value, delta);
    if (!slot.touched.load(std::memory_order_relaxed)) {
      slot.touched.store(true, std::memory_order_relaxed);
    }
  }

  // The histogram block (~31 KiB) is created at the first sample, so a slab
  // that never records one costs no pages.
  void Record(StatHistogramId id, std::uint64_t value) {
    Histograms* block = histograms_.load(std::memory_order_relaxed);
    if (block == nullptr) {
      block = new Histograms();
      histograms_.store(block, std::memory_order_release);
    }
    (*block)[static_cast<std::size_t>(id)].OwnerRecord(value);
  }

  std::int64_t Get(StatId id) const {
    return slots_[static_cast<std::size_t>(id)].value.load(std::memory_order_relaxed);
  }
  // By export name; 0 for a name outside the catalog.
  std::int64_t Get(std::string_view name) const {
    const std::optional<StatId> id = FindStat(name);
    return id ? Get(*id) : 0;
  }

  // Empty until the histogram's first sample.
  HistogramSnapshot Histogram(StatHistogramId id) const {
    const Histograms* block = histograms_.load(std::memory_order_acquire);
    return block == nullptr ? HistogramSnapshot{}
                            : (*block)[static_cast<std::size_t>(id)].AtomicLoad();
  }

  // Point-in-time snapshot of every counter touched so far, including ones
  // whose value is (or went back to) 0.
  std::map<std::string, std::int64_t> counters() const {
    std::map<std::string, std::int64_t> out;
    for (std::size_t i = 0; i < kNumStatIds; ++i) {
      if (slots_[i].touched.load(std::memory_order_relaxed)) {
        out[kStatNames[i]] = slots_[i].value.load(std::memory_order_relaxed);
      }
    }
    return out;
  }

  // Sum this slab into `totals`.
  void AddTo(StatTotals& totals) const {
    for (const auto& [name, value] : counters()) {
      totals.counters[name] += value;
    }
    for (std::size_t i = 0; i < kNumStatHistogramIds; ++i) {
      const HistogramSnapshot h = Histogram(static_cast<StatHistogramId>(i));
      if (h.count > 0) {
        totals.histograms[kStatHistogramNames[i]].Merge(h);
      }
    }
  }

 private:
  struct Slot {
    std::atomic<std::int64_t> value{0};
    std::atomic<bool> touched{false};
  };
  using Histograms = std::array<HistogramSnapshot, kNumStatHistogramIds>;

  std::array<Slot, kNumStatIds> slots_{};
  std::atomic<Histograms*> histograms_{nullptr};
};

// Counter export names, for readers that key on names (tests, benches,
// Engine::TotalStat).
namespace stat {
#define DEMOS_STAT_NAME_CONSTANT(id, name) inline constexpr const char* id = name;
DEMOS_STAT_CATALOG(DEMOS_STAT_NAME_CONSTANT)
#undef DEMOS_STAT_NAME_CONSTANT

// Histograms derived from the src/obs tracer (BuildTraceStats): per-phase
// migration latency breakdown, forwarding-chain lengths, and lazy link-update
// lag.  Phase histograms are named "phase_<name>_us" per
// MigrationPhaseName() in src/obs/trace_export.h.
inline constexpr const char* kMigrationTotalUs = "migration_total_us";
inline constexpr const char* kForwardHops = "forward_hops";
inline constexpr const char* kLinkUpdateLagUs = "link_update_lag_us";
}  // namespace stat

}  // namespace demos

#endif  // DEMOS_BASE_STATS_H_
