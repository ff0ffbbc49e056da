// Named counters and histograms used for the paper's cost accounting.
//
// Each kernel owns a StatsRegistry; benches read the counters after a run to
// regenerate the Section 6 tables (administrative message counts, forwarded
// message overhead, bytes moved per migration, link-update latency, ...).

#ifndef DEMOS_BASE_STATS_H_
#define DEMOS_BASE_STATS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <shared_mutex>
#include <string>
#include <string_view>

#include "src/base/histogram.h"

namespace demos {

// The counter catalog: every statically named counter, listed once with its
// export name.  StatId indexes a fixed slot array, so the hot-path Add() takes
// no string and no lock; names are used only at the edges (Get/TotalStat by
// name, counters(), Merge, Dump).  The stat::k* string constants below are
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

enum class StatId : std::uint8_t {
#define DEMOS_STAT_ENUMERATOR(id, name) id,
  DEMOS_STAT_CATALOG(DEMOS_STAT_ENUMERATOR)
#undef DEMOS_STAT_ENUMERATOR
  kNumStats,
};

inline constexpr std::size_t kNumStatIds = static_cast<std::size_t>(StatId::kNumStats);

inline constexpr std::array<const char*, kNumStatIds> kStatNames = {
#define DEMOS_STAT_EXPORT_NAME(id, name) name,
    DEMOS_STAT_CATALOG(DEMOS_STAT_EXPORT_NAME)
#undef DEMOS_STAT_EXPORT_NAME
};

// Catalog entry for an export name, or nullopt for a run-time name.
inline std::optional<StatId> FindStat(std::string_view name) {
  for (std::size_t i = 0; i < kNumStatIds; ++i) {
    if (name == kStatNames[i]) {
      return static_cast<StatId>(i);
    }
  }
  return std::nullopt;
}

// Thread-safety: each kernel owns one registry, but in the parallel engine
// (src/run) shard threads increment their own registries while the caller
// aggregates at quiescence, and cross-cutting code (benches, invariants) may
// read any registry.  A catalog counter is a fixed slot: Add() is one relaxed
// fetch_add plus a relaxed "touched" flag, lock-free from any thread.  Only the
// run-time-named family (AddNamed, e.g. rel_give_ups_m<a>_to_m<b>) lives in a
// map, guarded by a shared_mutex taken exclusively when a new name first
// appears.  Named histograms (Record) are fixed-size HistogramSnapshots in a
// name-keyed map behind a plain mutex; recording never allocates after a
// name's first sample.
class StatsRegistry {
 public:
  StatsRegistry() = default;
  StatsRegistry(const StatsRegistry& other) { Merge(other); }
  StatsRegistry& operator=(const StatsRegistry& other) {
    if (this != &other) {
      Reset();
      Merge(other);
    }
    return *this;
  }

  void Add(StatId id, std::int64_t delta = 1) {
    Slot& slot = slots_[static_cast<std::size_t>(id)];
    slot.value.fetch_add(delta, std::memory_order_relaxed);
    if (!slot.touched.load(std::memory_order_relaxed)) {
      slot.touched.store(true, std::memory_order_relaxed);
    }
  }

  // Counter whose name is only known at run time.  A catalog name is routed
  // to its slot, so each name has exactly one home.
  void AddNamed(std::string_view name, std::int64_t delta = 1) {
    if (const std::optional<StatId> id = FindStat(name)) {
      Add(*id, delta);
      return;
    }
    FindOrCreateNamed(name)->fetch_add(delta, std::memory_order_relaxed);
  }

  std::int64_t Get(StatId id) const {
    return slots_[static_cast<std::size_t>(id)].value.load(std::memory_order_relaxed);
  }

  std::int64_t Get(std::string_view name) const {
    if (const std::optional<StatId> id = FindStat(name)) {
      return Get(*id);
    }
    std::shared_lock lock(named_mu_);
    auto it = named_.find(name);
    return it == named_.end() ? 0 : it->second.load(std::memory_order_relaxed);
  }

  void Record(std::string_view name, std::uint64_t value) {
    std::lock_guard lock(distributions_mu_);
    auto it = distributions_.find(name);
    if (it == distributions_.end()) {
      it = distributions_.try_emplace(std::string(name)).first;
    }
    it->second.Record(value);
  }

  // Pointer into the registry; stable (map nodes never move) but only safe to
  // use once the recording threads are quiescent.
  const HistogramSnapshot* GetDistribution(std::string_view name) const {
    std::lock_guard lock(distributions_mu_);
    auto it = distributions_.find(name);
    return it == distributions_.end() ? nullptr : &it->second;
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
    std::shared_lock lock(named_mu_);
    for (const auto& [name, value] : named_) {
      out[name] = value.load(std::memory_order_relaxed);
    }
    return out;
  }

  void Reset() {
    for (Slot& slot : slots_) {
      slot.value.store(0, std::memory_order_relaxed);
      slot.touched.store(false, std::memory_order_relaxed);
    }
    {
      std::unique_lock lock(named_mu_);
      named_.clear();
    }
    std::lock_guard lock(distributions_mu_);
    distributions_.clear();
  }

  // Fold another registry into this one (used to aggregate per-kernel stats
  // into cluster-wide totals).
  void Merge(const StatsRegistry& other) {
    for (std::size_t i = 0; i < kNumStatIds; ++i) {
      if (other.slots_[i].touched.load(std::memory_order_relaxed)) {
        Add(static_cast<StatId>(i), other.slots_[i].value.load(std::memory_order_relaxed));
      }
    }
    std::map<std::string, std::int64_t> named;
    {
      std::shared_lock lock(other.named_mu_);
      for (const auto& [name, value] : other.named_) {
        named[name] = value.load(std::memory_order_relaxed);
      }
    }
    for (const auto& [name, value] : named) {
      FindOrCreateNamed(name)->fetch_add(value, std::memory_order_relaxed);
    }
    std::map<std::string, HistogramSnapshot, std::less<>> histograms;
    {
      std::lock_guard lock(other.distributions_mu_);
      histograms = other.distributions_;
    }
    std::lock_guard lock(distributions_mu_);
    for (const auto& [name, histogram] : histograms) {
      distributions_[name].Merge(histogram);
    }
  }

  // Human-readable report: sorted counters, then histogram summaries.
  // Shared by benches, examples, and debugging sessions so the format cannot
  // drift between them.
  void Dump(std::ostream& os) const {
    for (const auto& [name, value] : counters()) {
      os << "  " << name << " = " << value << "\n";
    }
    std::lock_guard lock(distributions_mu_);
    for (const auto& [name, h] : distributions_) {
      os << "  " << name << ": n=" << h.count << " mean=" << h.Mean() << " min=" << h.min
         << " p50=" << h.Percentile(50) << " p95=" << h.Percentile(95)
         << " p99=" << h.Percentile(99) << " max=" << h.max << "\n";
    }
  }

 private:
  struct Slot {
    std::atomic<std::int64_t> value{0};
    std::atomic<bool> touched{false};
  };

  std::atomic<std::int64_t>* FindOrCreateNamed(std::string_view name) {
    {
      std::shared_lock lock(named_mu_);
      auto it = named_.find(name);
      if (it != named_.end()) {
        return &it->second;
      }
    }
    std::unique_lock lock(named_mu_);
    return &named_[std::string(name)];  // value-initialized to 0 on first touch
  }

  std::array<Slot, kNumStatIds> slots_{};
  mutable std::shared_mutex named_mu_;
  std::map<std::string, std::atomic<std::int64_t>, std::less<>> named_;
  mutable std::mutex distributions_mu_;
  std::map<std::string, HistogramSnapshot, std::less<>> distributions_;
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
