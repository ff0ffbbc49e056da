// Structured event tracing for the DEMOS/MP cluster.
//
// The paper's evaluation (Sec. 6) is a phase-level cost characterization --
// 9 administrative messages, three bulk section moves, forwarding and
// link-update overhead per migration.  Flat end-of-run counters cannot
// reproduce that breakdown, so every kernel (and optionally the network
// layers) owns a Tracer that records typed, timestamped events:
//
//   * migration span instants for each of the 8 protocol steps of Sec. 3.1,
//     correlated by a per-migration span id;
//   * message-lifecycle instants (send, forwarding hop, bounce, delivery)
//     correlated by a trace id stamped into the message header;
//   * network-layer instants (drops, duplicates, retransmits).
//
// The tracer and the flight recorder hold one record type, EventRecord
// (src/obs/events.h), whose catalog row gives its name, category and operand
// labels at export.  Kernel and network code emit through EmitEvent (below)
// into one sink, a Tracer, which also holds the flight ring its ring rows go
// to.  A disabled tracer records nothing and costs one branch per call site.
// Tracers merge cluster-wide (Tracer::Merge), and src/obs/trace_export.h
// turns the merged stream into Chrome trace_event JSON, per-migration span
// trees, per-message lifecycles, and derived histograms.

#ifndef DEMOS_OBS_TRACE_H_
#define DEMOS_OBS_TRACE_H_

#include <cstdint>
#include <vector>

#include "src/base/ids.h"
#include "src/obs/events.h"
#include "src/obs/flight_recorder.h"
#include "src/sim/event_queue.h"

namespace demos {

// One (virtual, real) clock correspondence observed on a shard.  In the
// parallel engine each shard's tracer stamps events with the shard's private
// virtual clock, which advances at a workload-dependent rate -- two shards'
// timestamps are not comparable, so a merged Chrome trace interleaves
// nonsense.  Shards record sync points (thread start, then every park, when
// the virtual clock is momentarily frozen) and the exporter
// (NormalizeShardClocks in trace_export.h) rebuilds a shared real-time axis
// by piecewise-linear interpolation between them.
struct ClockSyncPoint {
  MachineId machine = kNoMachine;
  SimTime virt_us = 0;
  std::uint64_t real_ns = 0;
};

// Correlation id of every migration span of `pid`.  Migrations of one process
// are strictly sequential, so the id is reused across them; the exporter
// splits instances at each kMigrationBegin.
inline std::uint64_t MigrationSpanId(const ProcessId& pid) {
  return (std::uint64_t{pid.creating_machine} << 32) | pid.local_id;
}

class Tracer {
 public:
  Tracer() = default;
  explicit Tracer(MachineId machine) : machine_(machine) {}

  void Enable() { enabled_ = true; }
  void Disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }
  void set_machine(MachineId machine) { machine_ = machine; }

  // Fresh message trace id, unique cluster-wide (namespaced by machine).
  // Only called when enabled, so disabled runs stay byte-identical.
  std::uint64_t NextMessageTraceId() {
    return ((std::uint64_t{machine_} + 1) << 40) | next_message_id_++;
  }

  // The flight ring this tracer's ring rows go to (src/obs/flight_recorder.h),
  // written from the tracer's own thread.  Not owned; null detaches.
  void set_ring(FlightRecorder* ring) { ring_ = ring; }
  FlightRecorder* ring() const { return ring_; }

  // The one append.  Kernel and network code reaches it through EmitEvent
  // below; the network records each event against the transmitting machine,
  // not a fixed owner, so the record carries its own machine.
  void RecordEvent(const EventRecord& record) {
    if (enabled_) {
      events_.push_back(record);
    }
  }

  // Parallel-mode clock correspondence (see ClockSyncPoint).  Recorded by the
  // owning shard thread; like events, only merged/read at quiescence.
  void RecordClockSync(SimTime virt_us, std::uint64_t real_ns) {
    if (enabled_) {
      syncs_.push_back(ClockSyncPoint{machine_, virt_us, real_ns});
    }
  }
  const std::vector<ClockSyncPoint>& sync_points() const { return syncs_; }

  const std::vector<EventRecord>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  void Clear() { events_.clear(); }

  // Fold another tracer's events into this one (cluster-wide aggregation).
  // Events from different machines interleave out of order; SortByTime()
  // restores a global timeline.
  void Merge(const Tracer& other) {
    events_.insert(events_.end(), other.events_.begin(), other.events_.end());
    syncs_.insert(syncs_.end(), other.syncs_.begin(), other.syncs_.end());
  }

  void SortByTime();

 private:
  bool enabled_ = false;
  MachineId machine_ = kNoMachine;
  std::uint64_t next_message_id_ = 1;
  FlightRecorder* ring_ = nullptr;
  std::vector<EventRecord> events_;
  std::vector<ClockSyncPoint> syncs_;
};

// Emit one catalog event (src/obs/events.h) into `sink`: the tracer's vector
// when it is enabled, and its ring when the row goes to the flight ring and
// a ring is attached.  E is a template argument, so the row's category and
// sinks are compile-time constants: a tracer-only row costs the enabled()
// branch it always did, with no table load.  Message rows follow a lifecycle
// id, so a message sent before tracing was on (id 0) is skipped.
template <FrEvent E>
inline void EmitEvent(Tracer& sink, SimTime now, MachineId machine, std::uint64_t id,
                      const ProcessId& pid, std::uint64_t a, std::uint64_t b) {
  constexpr EventInfo kInfo = EventInfoOf(E);
  static_assert(E != FrEvent::kNone && kInfo.category != EventCategory::kRuntime,
                "runtime rows go straight to FlightRecorder::Record");
  if constexpr (kInfo.traced()) {
    if (sink.enabled() && (kInfo.category != EventCategory::kMessage || id != 0)) {
      sink.RecordEvent(
          EventRecord{now, id, a, b, pid, static_cast<std::uint32_t>(sink.size()), E, machine});
    }
  }
  if constexpr (kInfo.ringed()) {
    if (FlightRecorder* ring = sink.ring()) {
      ring->Record(E, a, b, id, pid);
    }
  }
}

}  // namespace demos

#endif  // DEMOS_OBS_TRACE_H_
