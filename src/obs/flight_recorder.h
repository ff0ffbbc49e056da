// Always-on flight recorder: a bounded per-shard ring buffer of the last N
// runtime events, cheap enough to leave enabled in every run, dumped only
// when something goes wrong.
//
// Tracing (src/obs/trace.h) answers "what did the whole run look like" and
// costs an unbounded vector append per event, so it is off by default.  The
// flight recorder answers the post-mortem question -- "what were the last few
// thousand things each shard did before the invariant tripped" -- with a
// fixed-size ring that overwrites itself forever.  Chaos/fuzz failures,
// ClusterChecker violations, and watchdog reap/adopt/cancel decisions trigger
// a merged dump (human-readable text + Chrome trace), turning every red seed
// into an artifact.
//
// The ring holds the tracer's record, EventRecord (src/obs/events.h):
// kernel and network moments flagged for the ring arrive through the same
// EmitEvent call that feeds the tracer (a Tracer holds the ring it feeds),
// and the runtime's own rows (mailbox, drain, park, quiescence) are recorded
// here directly.  The Chrome dump is the tracer's writer, WriteChromeTrace,
// over FlightRecordsInMicros; runtime rows land on its `runtime` track.
//
// Concurrency contract (mirrors MetricShard): each FlightRecorder has exactly
// one writer, its owning shard thread, and Record() is plain stores into
// pre-allocated memory -- no atomics, no branches beyond the ring wrap.
// Snapshots and dumps read the ring without synchronization, so they are only
// valid from the owner thread or when the writers are quiescent (which every
// trigger point guarantees: invariant checks, watchdog verdicts, and chaos
// verdicts all run at quiescence or on the owner thread).  The *trigger
// latch* on the hub is the one cross-thread piece and is an atomic.
//
// Timestamps come from an injectable clock so deterministic harnesses get
// deterministic dumps: the chaos runner feeds the virtual EventQueue clock,
// the parallel runtime feeds steady_clock.

#ifndef DEMOS_OBS_FLIGHT_RECORDER_H_
#define DEMOS_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "src/base/pool.h"
#include "src/obs/events.h"

namespace demos {

// Nanosecond clock used to stamp records.  Plain function pointer (not
// std::function) so Record() stays branch-predictable and allocation-free.
using FrClockFn = std::uint64_t (*)(void* ctx);

class FlightRecorderHub;

// One bounded ring.  Single writer; see the file comment for the read
// contract.
class FlightRecorder {
 public:
  // Capacity is rounded up to a power of two so the wrap is a mask.  The
  // ring may be one a destroyed recorder left (src/base/pool.h); records
  // outside the retained window are never read, so it is not cleared.
  FlightRecorder(std::uint16_t shard, std::size_t capacity);
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void SetClock(FrClockFn fn, void* ctx) {
    clock_ = fn;
    clock_ctx_ = ctx;
  }

  // `id` and `pid` are the subject a kernel event correlates on (migration
  // span, message trace id); runtime rows leave them empty.
  void Record(FrEvent type, std::uint64_t a = 0, std::uint64_t b = 0, std::uint64_t id = 0,
              const ProcessId& pid = {}) {
    EventRecord& r = ring_[static_cast<std::size_t>(total_) & mask_];
    r.ts = clock_(clock_ctx_);
    r.id = id;
    r.a = a;
    r.b = b;
    r.pid = pid;
    r.seq = static_cast<std::uint32_t>(total_);
    r.type = type;
    r.machine = shard_;
    ++total_;
  }

  std::uint16_t shard() const { return shard_; }
  std::size_t capacity() const { return ring_.size(); }
  // Events recorded over the recorder's lifetime (>= retained count).
  std::uint64_t total() const { return total_; }
  std::uint64_t dropped() const {
    return total_ > ring_.size() ? total_ - ring_.size() : 0;
  }

  // The retained window, oldest first.  Owner thread or quiescence only.
  std::vector<EventRecord> SnapshotRecords() const;

  void Clear() { total_ = 0; }

  // Latch a dump reason on the owning hub (see FlightRecorderHub::Trigger)
  // so writers that only hold their own recorder -- the kernels -- can flag
  // a failure.  Returns false for a standalone recorder.
  bool Trigger(const char* reason);

 private:
  friend class FlightRecorderHub;

  std::vector<EventRecord> ring_;
  std::size_t mask_;
  std::uint64_t total_ = 0;
  FrClockFn clock_;
  void* clock_ctx_ = nullptr;
  FlightRecorderHub* hub_ = nullptr;
  std::uint16_t shard_;
};

// One recorder per shard plus the cross-thread trigger latch.  The first
// trigger reason wins (a latch, not a log): concurrent failure paths race to
// set it, and dump sites check it at their next safe point instead of dumping
// from a foreign thread mid-run.
class FlightRecorderHub {
 public:
  explicit FlightRecorderHub(int shards, std::size_t capacity_per_shard = 8192);

  FlightRecorder& recorder(int shard) { return *recorders_[static_cast<std::size_t>(shard)]; }
  int shards() const { return static_cast<int>(recorders_.size()); }

  void SetClockAll(FrClockFn fn, void* ctx);

  // Latch a dump reason; returns true iff this call was the first.  `reason`
  // must have static storage duration.
  bool Trigger(const char* reason) {
    const char* expected = nullptr;
    return trigger_.compare_exchange_strong(expected, reason, std::memory_order_acq_rel);
  }
  bool triggered() const { return trigger_.load(std::memory_order_acquire) != nullptr; }
  const char* reason() const { return trigger_.load(std::memory_order_acquire); }
  void ResetTrigger() { trigger_.store(nullptr, std::memory_order_release); }

  // Merge every shard's retained window into one timeline ordered by
  // (ts, shard, seq).  Writers must be quiescent.
  std::vector<EventRecord> Merged() const;

  std::uint64_t TotalDropped() const;

 private:
  std::vector<std::unique_ptr<FlightRecorder>> recorders_;
  std::atomic<const char*> trigger_{nullptr};
};

// ---------------------------------------------------------------------------
// Dump writers.  Free functions over a merged record vector so the chaos
// result path (which outlives the hub) can reuse them.
// ---------------------------------------------------------------------------

// Human-readable post-mortem: header (reason, per-shard totals/drops), then
// one line per record: `ts s<shard> #<seq> <name>[ id=0x<hex>]` followed by
// `label=value` for each operand the catalog labels.
void WriteFlightText(const std::vector<EventRecord>& records, const char* reason,
                     std::ostream& os);
bool WriteFlightTextFile(const std::vector<EventRecord>& records, const char* reason,
                         const std::string& path);

// Ring records restamped from nanoseconds to the microseconds the tracer's
// Chrome writer (WriteChromeTrace, src/obs/trace_export.h) takes.
std::vector<EventRecord> FlightRecordsInMicros(std::vector<EventRecord> records);

// Default real-time clock: steady_clock nanoseconds (ctx ignored).
std::uint64_t FrSteadyClock(void* ctx);

}  // namespace demos

#endif  // DEMOS_OBS_FLIGHT_RECORDER_H_
