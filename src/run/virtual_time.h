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
// not per-link null messages).  Every cross-shard frame takes a known minimum
// virtual latency L(src, dst) >= 1us, so once every shard is blocked with its
// next local event at floor_i, no event anywhere in the cluster can be
// affected by another shard before
//
//     LBTS = min_i (floor_i + min_dst L(i, dst))
//
// A window with bound = LBTS - 1 therefore lets every shard execute all
// events with timestamp <= bound without ever receiving a frame in its past:
// a shard executing at t >= floor_src produces an arrival
// t + L(src, dst) >= floor_src + min-lookahead(src) >= bound + 1.
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
// Adaptive lookahead (docs/PROTOCOL.md, "Adaptive lookahead") relaxes the
// static bound in two ways when -- and only when -- no shard has published a
// *tight* flag (a migration in flight or an armed deadline watchdog):
//   - per-link learned lookahead: each source shard observes the virtual-time
//     gaps between its own consecutive sends and publishes a per-source
//     estimate that may exceed the static link minimum (AdaptiveLookahead);
//   - wide windows: the bound may additionally jump to
//     min_floor + wide_span - 1, where wide_span is a configured multiple of
//     the static base lookahead.
// Relaxed windows trade exact delivery timing for fewer coordination rounds:
// a frame whose latency-adjusted arrival lands at or before the receiver's
// clock is clamped forward to "now" (never delivered into the past, so
// exactly-once and per-link FIFO are untouched), and cross-shard clock skew
// stays bounded by one window span because every clock is capped by
// min_floor + span.  The instant any shard turns tight the closer falls back
// to the strictly conservative bound above, for which the zero-clamp proof
// holds window by window.

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

// Minimum virtual latency of every shard-to-shard link, and the per-shard
// outgoing lookahead derived from it.  Latencies are clamped to >= 1us:
// a zero-lookahead link would make the LBTS bound unable to advance.
class LinkLatencyTable {
 public:
  LinkLatencyTable(int machines, SimDuration uniform_us);

  // Override one link's minimum latency (0 is clamped to 1us).  Cold path:
  // recomputes the source's cached lookahead.
  void SetLink(MachineId src, MachineId dst, SimDuration latency_us);

  SimDuration Latency(MachineId src, MachineId dst) const {
    if (src >= machines_ || dst >= machines_) {
      return uniform_;
    }
    const SimDuration link = overrides_[Index(src, dst)];
    return link == 0 ? uniform_ : link;
  }

  // min over destinations of Latency(src, dst): how far past its own next
  // event this shard is guaranteed not to affect anyone.  Cached per source
  // and maintained by SetLink, so NextBound costs O(shards) per window
  // instead of O(shards^2) row rescans.
  SimDuration LookaheadFrom(MachineId src) const {
    return src < machines_ ? lookahead_[src] : uniform_;
  }

  // min over sources of LookaheadFrom: the cluster's base window span.
  SimDuration MinLookahead() const;

  int machines() const { return machines_; }

 private:
  std::size_t Index(MachineId src, MachineId dst) const {
    return static_cast<std::size_t>(src) * static_cast<std::size_t>(machines_) +
           static_cast<std::size_t>(dst);
  }
  void RecomputeLookahead(MachineId src);

  int machines_;
  SimDuration uniform_;
  std::vector<SimDuration> overrides_;  // 0 = use the uniform latency
  std::vector<SimDuration> lookahead_;  // cached per-source min over dst
};

// Learned per-link lookahead for relaxed LBTS windows.  Each source shard
// observes the virtual-time gap between its own consecutive sends per
// destination (owner-thread-only, one compare per Send) and publishes a
// per-source lookahead a closing shard may use instead of the static link
// minimum while no consumer needs tight bounds.  The estimate starts at the
// static minimum, grows at most 2x per observation window (a windowed min
// over actual send_ts deltas, capped at growth_cap x static), shrinks
// immediately when a shorter gap shows up, and collapses back to the static
// minimum the moment its shard turns tight (a migration offer leaves, a
// deadline watchdog arms).  The published value is a heuristic: relaxed-mode
// correctness comes from consumer gating plus forward clamping
// (docs/PROTOCOL.md), not from this estimate -- a good estimate just keeps
// the clamp count near zero.
class AdaptiveLookahead {
 public:
  AdaptiveLookahead(const LinkLatencyTable& table, std::uint32_t growth_cap,
                    std::uint32_t window);

  // Owner-thread-only for shard `src`: record one send.  Returns true when
  // the observation shrank the published lookahead (counted by the caller as
  // lookahead_shrinks).
  bool Observe(MachineId src, MachineId dst, SimTime send_ts);

  // Owner-thread-only for shard `src`: forget everything learned and publish
  // the static minimum again (the shard turned tight).  Returns true when
  // the published value actually shrank.
  bool Collapse(MachineId src);

  // Any thread (a closing shard): current published lookahead for `src`.
  // Always >= the static LookaheadFrom(src).
  SimDuration FromSource(MachineId src) const {
    return published_[src]->value.load(std::memory_order_seq_cst);
  }

  int machines() const { return static_cast<int>(sources_.size()); }

 private:
  struct LinkState {
    SimTime last_send_ts = kSimTimeNever;  // kSimTimeNever: no send observed
    SimDuration learned = 0;
    SimDuration window_min = kSimTimeNever;
    std::uint32_t window_count = 0;
  };
  // Owner-thread-only learning state for one source shard.
  struct SourceState {
    SimDuration static_la = 1;  // LookaheadFrom(src), the floor
    SimDuration cap = 1;        // static_la * growth_cap, the ceiling
    std::vector<LinkState> links;
  };
  struct alignas(64) Published {
    std::atomic<SimDuration> value{1};
  };

  // Recompute src's published value (min learned over observed links, or the
  // static floor when nothing was observed).  Returns true when it shrank.
  bool Republish(MachineId src);

  std::uint32_t window_;
  std::vector<SourceState> sources_;
  std::vector<std::unique_ptr<Published>> published_;
};

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

  // True once any relaxed (wider-than-static) window was opened this run.
  // Receivers use it to classify a clamped arrival as the expected residue of
  // a wide era (wide_frames_clamped) instead of a conservative-sync bug
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

  // New bound from a validated set of floors: min_i(floor_i + lookahead_i) - 1,
  // skipping drained shards.  Returns kSimTimeNever when every queue is empty
  // (the cluster is quiescent).  The result is always > the current bound:
  // Confirm admits only floors past it, and lookahead is >= 1us.
  SimTime NextBound(const std::vector<SimTime>& floors, const LinkLatencyTable& latency) const;

  // Relaxed variant for windows where no shard is tight: lookahead per source
  // is the learned estimate (>= static; `adaptive` may be null), and the
  // bound may additionally widen to min_floor + wide_span - 1.  Never returns
  // less than NextBound.  `*widened` reports whether the result actually
  // exceeds the strictly conservative bound (the caller counts
  // wide_windows_opened and marks the run ever-wide).
  SimTime NextRelaxedBound(const std::vector<SimTime>& floors, const LinkLatencyTable& latency,
                           const AdaptiveLookahead* adaptive, SimDuration wide_span,
                           bool* widened) const;

  // The next window for a confirmed round: NextBound while any shard is
  // tight, NextRelaxedBound otherwise.
  SimTime NextWindow(const Round& round, const LinkLatencyTable& latency,
                     const AdaptiveLookahead* adaptive, SimDuration wide_span,
                     bool* widened) const {
    *widened = false;
    return round.any_tight ? NextBound(round.floors, latency)
                           : NextRelaxedBound(round.floors, latency, adaptive, wide_span, widened);
  }

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
