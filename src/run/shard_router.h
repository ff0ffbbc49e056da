// ShardRouter: the in-process transport of the parallel engine.
//
// In ParallelCluster each kernel's shard runs on its own thread, and this
// class replaces SimNetwork: Send() stages the framed PayloadRef into a
// shard-local per-destination lane, and Flush() publishes each lane as ONE
// push into the destination shard's bounded lock-free mailbox (no latency
// model, no loss -- the "published communications" eventual-delivery
// guarantee is trivially met by a reliable in-memory hop).  Batching is the
// first layer of the hot-path anatomy (see docs/DESIGN.md): a drain round
// that forwards N frames to one destination pays one CAS + one wakeup check
// instead of N.  Per-link FIFO (invariant I2) is preserved because a lane is
// per (src, dst), frames inside a batch stay in stage order, and a published
// batch is never split or reordered against the same link's later frames.
// Every staged frame keeps its own send timestamp, so conservative-sync
// consumers see exact per-frame times (a batch's MailItem.send_ts is the
// earliest -- its first frame).
//
// The receive side batch-drains the mailbox from the shard thread.  Wakeups
// are amortised twice over: a consumer with nothing to do first advertises
// kConsumerSpinning and polls for an adaptive budget (tuned by whether work
// arrives inside the window, i.e. by observed inter-arrival gaps) before
// advertising kConsumerParked and blocking on the condvar; and a producer
// notifies only a parked consumer -- publishes to a running or spinning one
// elide the syscall entirely (counted as notifies_elided).
//
// Backpressure, not unbounded queues: when a mailbox is full the producer
// spins/yields until the consumer frees a slot.  Because producers are shard
// threads themselves this is a real backpressure loop (the fast shard stalls
// until the slow one catches up).  One escape hatch keeps a cycle of full
// mailboxes from deadlocking: a blocked producer moves the contents of its
// OWN ring into an owner-thread-only spill queue (no handlers run, so there
// is no reentrancy), which frees its ring for whoever is blocked on it; the
// spill is consumed ahead of the ring, so per-path FIFO is preserved.  This
// is why Send(src, ...) and Flush(src) must be called from the thread that
// owns shard `src` once the cluster is running.
//
// sent()/consumed() are cluster-wide monotonic counts used by the
// quiescence detector: sent is bumped per frame at *stage* time (before the
// lane is even published), consumed once per drain round, after every
// handler or sink call of that round has returned, so "sent == consumed" can
// only be observed when no frame is staged, in a mailbox, or being processed.
// Neither is one shared word: each shard owns a cache-line flow slot that
// counts the frames it sent and the frames it consumed, and one extra shared
// slot counts frames from senders outside [0, machines).  A message therefore
// writes only its sender's and its receiver's own lines, never a line another
// shard writes.

#ifndef DEMOS_RUN_SHARD_ROUTER_H_
#define DEMOS_RUN_SHARD_ROUTER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/ids.h"
#include "src/base/pool.h"
#include "src/net/transport.h"
#include "src/run/mpsc_queue.h"
#include "src/sim/event_queue.h"

namespace demos {

class MetricsEngine;
class MetricShard;
class FlightRecorder;
class FlightRecorderHub;
class AdaptiveLookahead;

struct ShardRouterConfig {
  // Mailbox ring capacity per shard (rounded up to a power of two).
  std::size_t mailbox_capacity = 1 << 14;
  // Failed pushes before a blocked producer starts yielding the CPU.
  std::size_t spin_before_yield = 64;
  // A producer blocked this long on one push logs a stall diagnostic (it
  // keeps waiting; the harness timeout is the actual deadline).
  std::chrono::milliseconds stall_warning{5000};
  // Frames staged per destination lane before the lane is force-published
  // mid-round (Flush publishes whatever is staged regardless).  1 disables
  // batching: every Send publishes immediately.
  std::size_t max_batch_frames = 64;
  // Adaptive idle-spin bounds for IdleWait, in poll iterations.  The budget
  // doubles when work arrives inside the spin window and halves when the
  // window expires empty, clamped to [spin_min, spin_max].  spin_min == 0
  // disables spinning (park immediately, the pre-batching behaviour).
  std::size_t spin_min = 32;
  std::size_t spin_max = 4096;
};

class ShardRouter final : public Transport {
 public:
  explicit ShardRouter(int machines, ShardRouterConfig config = {});

  // ---- Transport interface (producer side). ----
  void Attach(MachineId node, DeliveryHandler handler) override;
  // Deliver a frame to dst (blocking while dst's mailbox is full).  With
  // batching enabled (see SetBatchingEnabled) the frame is staged in src's
  // per-destination lane and published when the lane hits max_batch_frames
  // or at the next Flush(src); until then it is invisible to dst.  Batched
  // sends must come from the thread that owns shard `src` (the kernel always
  // does).  With batching disabled -- the construction-time default -- every
  // Send publishes immediately in global call order, which keeps the
  // multi-producer contract standalone tests and single-threaded harness
  // staging rely on.  Senders outside [0, machines) always publish
  // immediately.
  void Send(MachineId src, MachineId dst, PayloadRef payload) override;

  // Turn destination batching on/off.  Off at construction: immediate
  // publishes preserve the *global* send order, which single-threaded
  // staging depends on (e.g. an attach sent from machine m must beat a kick
  // sent from machine 0 into m's mailbox).  ParallelCluster enables batching
  // in Start(), after flushing staged leftovers and before the shard threads
  // spin up: from then on each shard batches only its own sends, where
  // per-link FIFO is the only ordering the running engine guarantees.  Must
  // not be called while shard threads run.
  void SetBatchingEnabled(bool enabled);
  bool batching_enabled() const { return batching_enabled_; }

  // Publish every staged lane of `src`, in first-touch destination order.
  // Returns the number of frames published.  Same threading contract as
  // Send(src, ...).
  std::size_t Flush(MachineId src);
  // Flush every shard's lanes.  Only while no shard thread runs (pre-start
  // staging / post-stop teardown).
  void FlushAll();
  // Frames currently staged by `src` (owner-thread-only, like Send).
  std::size_t StagedFrames(MachineId src) const;

  // Register the virtual clock that stamps frames sent *by* `node`.  Every
  // frame carries the sender's EventQueue::Now() at Send time, which is what
  // lets the conservative-sync drain path schedule the delivery at
  // send_ts + link latency on the receiver's clock.  Unregistered senders
  // (standalone router tests, harness staging) stamp 0.  Set before Start.
  void SetClock(MachineId node, const EventQueue* clock);

  // Feed every batched Send's (src, dst, send_ts) into the adaptive-lookahead
  // learner (src/run/virtual_time.h).  May be null (the default); set before
  // Start, never while shard threads run.  Observe() mutates only src-owned
  // state, which the Send threading contract already guarantees.  A shrink
  // (the learner walked its estimate back) is counted to the sending shard as
  // lookahead_shrinks.
  void SetLookahead(AdaptiveLookahead* lookahead) { lookahead_ = lookahead; }

  // ---- Consumer side; every call below is shard-thread-only for `node`. ----
  // Pop messages and run the attached handler on each; returns the number of
  // messages consumed.  `max_items` is a soft bound: a published batch is
  // never split, so the last batch may overshoot it.
  std::size_t Drain(MachineId node, std::size_t max_items);

  // Conservative-sync drain: pop messages and hand (src, send_ts, payload)
  // per frame to `sink` instead of running the delivery handler -- batched
  // frames are unpacked and keep their own send timestamps.  The sink must
  // make the frame's effect durable before returning (the parallel engine
  // schedules the delivery on the shard's EventQueue); each frame counts as
  // consumed once its sink call returns, so the quiescence counters treat a
  // scheduled-but-not-yet-delivered frame as a pending *event*, which the
  // LBTS floors cover.  `max_items` is a soft bound as in Drain.
  using TimedSink = std::function<void(MachineId src, SimTime send_ts, PayloadRef payload)>;
  std::size_t DrainTimed(MachineId node, std::size_t max_items, const TimedSink& sink);

  // Run `node`'s attached delivery handler now (the deferred half of a
  // DrainTimed delivery event).  Shard-thread-only for `node`.
  void Deliver(MachineId node, MachineId src, PayloadRef payload) {
    inboxes_[node]->handler(src, std::move(payload));
  }
  bool HasMail(MachineId node) const;

  // Idle protocol: spin for the shard's adaptive budget polling `has_work`
  // (advertised as kConsumerSpinning so producers elide notifies), then park
  // on the condvar until a producer wakes it, `has_work` turns true, or
  // `timeout` elapses.  The timeout doubles as missed-wakeup insurance.
  void IdleWait(MachineId node, std::chrono::microseconds timeout,
                const std::function<bool()>& has_work);

  // Wake one shard / all shards (Post() injection and Stop() teardown).
  void Wake(MachineId node);
  void WakeAll();

  // True while `node`'s consumer is blocked on its condvar (tests).
  bool IsParked(MachineId node) const {
    return inboxes_[node]->consumer_state.load(std::memory_order_acquire) == kConsumerParked;
  }

  // Optional per-shard observability (src/obs/metrics.h, flight_recorder.h).
  // Both may be null; set before Start, never while shard threads run.  The
  // router attributes hot-path events to the *calling* shard's slab/recorder,
  // preserving the single-writer rule those structures rely on.
  void SetObservability(MetricsEngine* metrics, FlightRecorderHub* flight);

  // Any thread: approximate queue depths for the metrics sampler.
  std::size_t MailboxDepth(MachineId node) const;
  std::size_t SpillDepth(MachineId node) const;

  int machines() const { return static_cast<int>(inboxes_.size()); }
  // Sums over the flow slots (slot order, seq_cst loads).  A caller that
  // needs sent >= consumed in one reading reads consumed() first: a frame is
  // counted sent before it can be popped, so every frame in the consumed sum
  // is already in any later sent sum.  The close protocol needs no atomic
  // sum: it reads them while every shard is blocked, when no shard-owned slot
  // can move (src/run/virtual_time.h).
  std::uint64_t sent() const;
  std::uint64_t consumed() const;
  // How many publishes hit a full mailbox (backpressure events, not spin laps).
  std::uint64_t backpressure_hits() const {
    return backpressure_hits_.load(std::memory_order_relaxed);
  }
  // How many messages a blocked producer rescued from its own ring into its
  // spill queue (nonzero only when a cycle of full mailboxes was broken).
  std::uint64_t spill_rescues() const { return spill_rescues_.load(std::memory_order_relaxed); }

 private:
  enum ConsumerState : int {
    kConsumerRunning = 0,   // draining / executing events
    kConsumerSpinning = 1,  // polling has_work in IdleWait's spin window
    kConsumerParked = 2,    // blocked on the condvar (notify required)
  };

  // One frame inside a staged batch.  Frames keep their own send timestamps
  // so DrainTimed can schedule each delivery exactly.
  struct StagedFrame {
    SimTime send_ts = 0;
    PayloadRef payload;
  };

  // A published lane: >= 2 frames from one (src, dst) link, in stage order.
  // Batch buffers are recycled through the *destination* shard's pool after
  // a drain (owner-thread free-list; see OwnedFreeList).
  struct Batch {
    MachineId src = kNoMachine;
    std::vector<StagedFrame> frames;
  };

  struct MailItem {
    MachineId src = kNoMachine;
    SimTime send_ts = 0;  // sender's virtual clock at Send time (batch: earliest)
    PayloadRef payload;   // single-frame item (batch == nullptr)
    std::unique_ptr<Batch> batch;  // multi-frame item (payload empty)
  };

  struct Inbox {
    explicit Inbox(std::size_t capacity) : queue(capacity) {}

    BoundedMpscQueue<MailItem> queue;
    DeliveryHandler handler;
    // Owner-thread-only overflow, filled exclusively by the deadlock escape
    // hatch in PublishItem and always consumed before the ring.
    std::deque<MailItem> spill;
    std::mutex mu;
    std::condition_variable cv;
    // Advertised by the consumer (ConsumerState); producers notify only when
    // it reads kConsumerParked and elide the syscall otherwise.
    std::atomic<int> consumer_state{kConsumerRunning};
    // Owner-thread-written mirror of spill.size(); relaxed atomic only so the
    // metrics sampler can read it cross-thread.
    std::atomic<std::size_t> spill_depth{0};
  };

  // Owner-thread-only per-shard send/idle state (the shard as a *producer*).
  struct Outbox {
    // staged[dst] is the open lane for that destination (null when empty).
    std::vector<std::unique_ptr<Batch>> staged;
    // Destinations with an open lane, in first-touch order; may hold
    // duplicates when a lane was force-published mid-round and reopened.
    std::vector<MachineId> dirty;
    // Recycled batch buffers.  Acquired here when this shard opens a lane;
    // refilled when this shard drains a batch from its own inbox -- both on
    // the owner thread, so buffers circulate between shards lock-free.
    OwnedFreeList<Batch> batch_pool;
    // Adaptive spin budget for IdleWait (see ShardRouterConfig::spin_min).
    std::size_t spin_budget = 0;
  };

  // Push one MailItem into dst's ring, blocking through the backpressure /
  // rescue loop on a full mailbox, then notify-or-elide.  `metrics`/`flight`
  // are the *sending* shard's sinks.
  void PublishItem(MachineId src, MachineId dst, MailItem item, MetricShard* metrics,
                   FlightRecorder* flight);
  // Publish src's staged lane for dst (no-op when empty).  Does not touch
  // Outbox::dirty.
  void FlushLane(MachineId src, MachineId dst, MetricShard* metrics);

  // Move everything poppable in `src`'s own ring into its spill queue.
  std::size_t RescueOwnInbox(MachineId src);

  // The one consumer loop behind Drain and DrainTimed: spill-first pop,
  // per-frame `on_frame(src, send_ts, payload)`, batch recycling, then the
  // consumed count and the metrics/flight tail.  A template so each caller's
  // per-frame call inlines.
  template <typename OnFrame>
  std::size_t DrainWith(MachineId node, std::size_t max_items, OnFrame&& on_frame);

  // Quiescence counts of one shard, alone on its cache line: `sent` is
  // bumped by the shard's sends, `consumed` by its drains.  The extra slot
  // at index machines() takes senders outside the shard set, which may be
  // any thread, hence fetch_add throughout.
  struct alignas(64) FlowSlot {
    std::atomic<std::uint64_t> sent{0};
    std::atomic<std::uint64_t> consumed{0};
  };

  ShardRouterConfig config_;
  std::vector<std::unique_ptr<Inbox>> inboxes_;
  std::vector<std::unique_ptr<Outbox>> outboxes_;
  // Flipped only while the router is single-threaded (before the shard
  // threads start / after they join), so a plain bool is race-free.
  bool batching_enabled_ = false;
  // Per-sender virtual clocks (null = stamp 0).  Written only before the
  // shard threads start; each entry is read only by its owning shard.
  std::vector<const EventQueue*> clocks_;
  MetricsEngine* metrics_ = nullptr;
  FlightRecorderHub* flight_ = nullptr;
  AdaptiveLookahead* lookahead_ = nullptr;
  std::unique_ptr<FlowSlot[]> flow_;  // machines + 1 slots
  std::atomic<std::uint64_t> backpressure_hits_{0};
  std::atomic<std::uint64_t> spill_rescues_{0};
};

}  // namespace demos

#endif  // DEMOS_RUN_SHARD_ROUTER_H_
