// Conservative virtual-time synchronization for the parallel engine.
//
// The classic PDES problem: ParallelCluster's shards each own a private
// EventQueue, so without agreement shard A can execute an event at virtual
// time 50'000 before shard B's event at 1'000 has sent it a message that
// should have arrived at 1'100.  That is harmless for workloads whose
// correctness is timing-independent (the free-running default), but it makes
// every wall-clock policy -- most importantly MigrationDeadlines -- fire
// spuriously.
//
// The fix here is lookahead-based conservative windows (YAWNS-style rounds,
// not per-link null messages).  Every cross-shard frame takes the same known
// virtual latency L >= 1us, so once every shard is blocked with its next
// local event at floor_i, no event anywhere in the cluster can be affected by
// another shard before
//
//     LBTS = min_i floor_i + L
//
// A window with bound = LBTS - 1 therefore lets every shard execute all
// events with timestamp <= bound without ever receiving a frame in its past:
// a shard executing at t >= floor_src produces an arrival
// t + L >= min_floor + L = bound + 1.
//
// Nothing coordinates the rounds: the shards close them themselves (the
// close protocol, LbtsState below).  A shard whose round did nothing
// publishes its floor and tight flag, then joins one shared idle word (an
// idle count plus a wake generation); it leaves the word -- bumping the
// generation -- before it consumes any input.  The shard whose join brings
// the count to N is the closer.  It reads the router's flow counts and the
// posted counts, then the window and every floor, then re-reads the idle
// word.  The close holds when
//   (1) the word is unchanged: no shard left between the two reads, so no
//       shard consumed input or produced output in between -- the floors and
//       the shard-owned flow counts it read held together at one instant;
//   (2) sent == consumed and posted == posted_done: at that instant no frame
//       was staged, in a mailbox or mid-drain, and no posted closure was
//       waiting, so nothing but the shards' own queues could make events;
//   (3) every floor lies past the window: no shard holds a runnable event.
// Then the floors are exactly the next event times of a cluster that cannot
// move on its own, which is all the LBTS argument needs.  If every floor is
// kSimTimeNever the cluster is quiescent; otherwise the closer opens the next
// window with a compare-and-swap from the bound it read.  Bounds strictly
// increase, so the bound identifies its window: of two closers that read the
// same window, only one can open the next.  A void close costs nothing -- a
// word that moved means a shard woke, and a failed check (2) or (3) means a
// shard has work and will wake -- and that shard's next block closes again.
//
// Wide windows (docs/PROTOCOL.md, "Wide windows") relax that bound when --
// and only when -- no shard has published a *tight* flag (a migration in
// flight): the bound becomes min_floor + wide_span - 1, where wide_span is a
// configured multiple of L.  One rule covers both cases,
//
//     bound = min_floor + span - 1,   span = any_tight ? L : wide_span.
//
// Relaxed windows trade exact delivery timing for fewer coordination rounds:
// a frame whose latency-adjusted arrival lands at or before the receiver's
// clock is clamped forward to "now" (never delivered into the past, so
// exactly-once and per-link FIFO are untouched), and cross-shard clock skew
// stays bounded by one window span because every clock is capped by
// min_floor + span.  The instant any shard turns tight the closer falls back
// to span = L, for which the zero-clamp proof holds window by window.

#ifndef DEMOS_RUN_VIRTUAL_TIME_H_
#define DEMOS_RUN_VIRTUAL_TIME_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/ids.h"
#include "src/sim/event_queue.h"

namespace demos {

// The close protocol's shared state: the idle word, the window (bound), and
// one (floor, tight) slot per shard.  All accesses are seq_cst; they run once
// per blocked round, not per event.
class LbtsState {
 public:
  // `bound` is the first window.  A free-running cluster passes
  // kSimTimeNever - 1: one window over all of virtual time, so every close is
  // a quiescence check.
  explicit LbtsState(int shards, SimTime bound = 0);

  // ---- Shard side. ----
  // The shard's round did nothing: publish its floor (next event time,
  // kSimTimeNever when drained) and tight flag -- this shard's kernel needs
  // strictly conservative bounds (migration in flight / armed deadline
  // watchdog) -- then join the idle word.  Returns the word this join made
  // when it brought the count to N (the caller is the closer and passes it to
  // Read), 0 otherwise.
  std::uint64_t Block(MachineId shard, SimTime floor, bool tight);
  // Leave the idle word.  Must precede any input the shard consumes.
  void Wake() { idle_.fetch_add(kWakeGeneration - 1, std::memory_order_seq_cst); }

  SimTime bound() const { return bound_.load(std::memory_order_seq_cst); }
  // Windows opened so far.
  std::uint64_t epoch() const { return epoch_.load(std::memory_order_seq_cst); }

  // True once any wide (span > L) window was opened this run.  Receivers use
  // it to classify a clamped arrival as the expected residue of a wide era
  // (wide_frames_clamped) instead of a conservative-sync bug
  // (sync_frames_clamped, which must stay 0 in a never-widened run).
  bool ever_wide() const { return ever_wide_.load(std::memory_order_seq_cst); }

  // ---- Closer side. ----
  // The closer's read of the window and every published floor.
  struct Round {
    std::uint64_t word = 0;  // the idle word the closing join made
    SimTime bound = 0;
    bool any_tight = false;
    std::vector<SimTime> floors;

    bool Drained() const {
      return std::all_of(floors.begin(), floors.end(),
                         [](SimTime floor) { return floor == kSimTimeNever; });
    }
  };
  Round Read(std::uint64_t word) const;

  // The closer's last read, after the flow counts and Read: true when the
  // idle word is unchanged (no shard woke or re-published since the join)
  // and every floor lies past the window (no shard holds a runnable event).
  bool Confirm(const Round& round) const;

  // The next window for a confirmed round: min_floor + span - 1 over the
  // undrained shards, where span is `lookahead` (the link latency L) while
  // any shard is tight and max(lookahead, wide_span) otherwise.  Returns
  // kSimTimeNever when every queue is empty (the cluster is quiescent).  The
  // result is always > the current bound: Confirm admits only floors past
  // it, lookahead is >= 1us, and a guard enforces it regardless.  `*widened`
  // reports whether the result exceeds the bound a span of `lookahead` would
  // give (the caller counts wide_windows_opened and marks the run ever-wide).
  SimTime NextWindow(const Round& round, SimDuration lookahead, SimDuration wide_span,
                     bool* widened) const;

  // Open the window ending at `new_bound`, a compare-and-swap from `seen`,
  // the bound the closer read.  Returns the new window's epoch, or 0 when
  // another closer already opened the next window.  `wide` latches
  // ever_wide() before the swap, so no frame of the wide window can be
  // clamped before the latch is visible.
  std::uint64_t OpenWindow(SimTime seen, SimTime new_bound, bool wide = false);

  int shards() const { return static_cast<int>(slots_.size()); }

 private:
  // Idle word: the idle count in the low half, the wake generation in the
  // high half.  Wake adds kWakeGeneration - 1: count - 1, generation + 1.
  static constexpr std::uint64_t kWakeGeneration = std::uint64_t{1} << 32;

  // One cache line per shard: floors are written by their shard on every
  // block and must not false-share with a neighbour's hot loop.
  struct alignas(64) Slot {
    std::atomic<SimTime> floor{kSimTimeNever};
    std::atomic<bool> tight{false};
  };

  std::vector<std::unique_ptr<Slot>> slots_;
  // Every block and wake writes the idle word; every round reads the bound.
  // Separate lines, so a neighbour's block does not evict the bound.
  alignas(64) std::atomic<std::uint64_t> idle_{0};
  alignas(64) std::atomic<SimTime> bound_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<bool> ever_wide_{false};
};

}  // namespace demos

#endif  // DEMOS_RUN_VIRTUAL_TIME_H_
