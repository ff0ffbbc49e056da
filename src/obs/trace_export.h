// Trace analysis and export: Chrome trace_event JSON, per-migration span
// trees, per-message lifecycles, summary tables, and derived histograms.
//
// The kernels record *instants* (cheap, single-push); this layer pairs them
// into spans after the fact.  Pairing is keyed on the correlation id carried
// by every event -- MigrationSpanId(pid) for migration events,
// Message::trace_id for message events -- and on the event's catalog row, so
// concurrent migrations and interleaved forwarding chains reconstruct
// independently.
//
// Every function here takes records in time order and does not sort them.
// Every producer yields that order: Engine::TotalTrace sorts its merge, a
// single tracer records in clock order, NormalizeShardClocks sorts its
// output, FilterTrace keeps its input's order, and a flight hub's Merged()
// sorts by (ts, slot, seq).

#ifndef DEMOS_OBS_TRACE_EXPORT_H_
#define DEMOS_OBS_TRACE_EXPORT_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "src/base/stats.h"
#include "src/obs/trace.h"

namespace demos {

// The 8 phases of the Sec. 3.1 protocol as reconstructed from the event
// stream.  Each phase spans one message flight (or flight + local work), so
// all of them have nonzero virtual duration.
enum class MigrationPhaseKind : int {
  kRequest = 0,        // MIGRATE_REQUEST in flight (step 1)
  kOffer,              // freeze + MIGRATE_OFFER in flight (step 2)
  kAccept,             // allocate + MIGRATE_ACCEPT in flight (step 3)
  kMoveResident,       // pull request + resident-state stream (step 4)
  kMoveSwappable,      // pull request + swappable-state stream (step 4)
  kMoveImage,          // pull request + memory-image stream (step 4)
  kTransferComplete,   // TRANSFER_COMPLETE in flight (step 5)
  kRestart,            // queue forward + fwd addr + CLEANUP_DONE + restart (steps 6-8)
  kNumMigrationPhases,
};

inline constexpr int kNumMigrationPhases =
    static_cast<int>(MigrationPhaseKind::kNumMigrationPhases);

const char* MigrationPhaseName(MigrationPhaseKind kind);

struct MigrationPhaseSpan {
  MigrationPhaseKind kind = MigrationPhaseKind::kRequest;
  SimTime start = 0;
  SimTime end = 0;
  std::uint64_t bytes = 0;  // section phases: bytes received
  bool valid = false;       // both endpoints observed
  SimDuration duration() const { return end - start; }
};

struct MigrationSpan {
  ProcessId pid;
  std::uint64_t id = 0;
  MachineId source = kNoMachine;
  MachineId destination = kNoMachine;
  SimTime start = 0;
  SimTime end = 0;
  bool completed = false;  // restarted on the destination
  bool aborted = false;    // rejected or failed
  std::uint64_t bytes_moved = 0;
  std::uint64_t pending_forwarded = 0;  // step-6 queue length
  MigrationPhaseSpan phases[kNumMigrationPhases > 0 ? kNumMigrationPhases : 1];
  SimDuration duration() const { return end - start; }
};

// One message's life, reconstructed from its trace id.
struct MessageTrace {
  std::uint64_t id = 0;
  std::uint64_t type = 0;  // MsgType as sent
  MachineId origin = kNoMachine;
  SimTime sent = 0;
  SimTime delivered = 0;
  bool was_delivered = false;
  std::uint32_t hops = 0;     // forwarding hops transited
  std::uint32_t bounces = 0;  // return-to-sender / dead-letter events
  SimDuration Latency() const { return was_delivered ? delivered - sent : 0; }
};

// Pair migration instants into span trees.
std::vector<MigrationSpan> BuildMigrationSpans(const std::vector<EventRecord>& events);

// Pair message-lifecycle instants into per-message records (send order).
std::vector<MessageTrace> BuildMessageTraces(const std::vector<EventRecord>& events);

// The derived histograms by name (those with at least one sample):
//   stat::kMigrationTotalUs, phase_<name>_us (8x), stat::kForwardHops,
//   stat::kLinkUpdateLagUs.
std::map<std::string, HistogramSnapshot> BuildTraceStats(const std::vector<EventRecord>& events);

// Chrome trace_event JSON ({"traceEvents":[...]}) loadable in chrome://tracing
// or Perfetto, for tracer and flight-ring records alike (ring records go
// through FlightRecordsInMicros first).  Record microseconds map 1:1 to trace
// microseconds.  Records land as instants on one track per (machine,
// category): migration, messages, net, runtime.  Reconstructed migrations
// additionally render as nested duration ('X') span trees on a synthetic
// "migrations" process so each migration reads as a bar with 8 sub-bars.
void WriteChromeTrace(const std::vector<EventRecord>& events, std::ostream& os);

// Compact human-readable report: per-migration phase table and the lifecycle
// of every forwarded or bounced message.
void WriteTraceSummary(const std::vector<EventRecord>& events, std::ostream& os);

// Convenience: WriteChromeTrace to a file path.  Returns false on I/O error.
bool WriteChromeTraceFile(const std::vector<EventRecord>& events, const std::string& path);

// Rebuild a shared time axis for a parallel-engine trace.  Each event's ts is
// its shard's private virtual clock; `syncs` carries the per-shard
// (virtual, real) correspondence points the shards recorded (thread start and
// every park).  Each event timestamp is mapped to real time by
// piecewise-linear interpolation between its machine's surrounding sync
// points (extrapolated 1:1 in virtual us beyond the ends), then rebased so
// the earliest sync is t=0.  Events of machines with no sync points keep
// their timestamps (a sequential trace passes through unchanged).  Output is
// sorted by the normalized time; the input need not be.
std::vector<EventRecord> NormalizeShardClocks(const std::vector<EventRecord>& events,
                                              const std::vector<ClockSyncPoint>& syncs);

// Trim a cluster timeline to the events relevant to a failure: keeps events
// whose correlation id is one of `ids` (message lifecycles), whose pid is one
// of `pids` (their migration spans included), and -- so the repro has
// context -- every migration-category event.  Order is preserved.
std::vector<EventRecord> FilterTrace(const std::vector<EventRecord>& events,
                                     const std::vector<std::uint64_t>& ids,
                                     const std::vector<ProcessId>& pids);

}  // namespace demos

#endif  // DEMOS_OBS_TRACE_EXPORT_H_
