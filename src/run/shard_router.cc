#include "src/run/shard_router.h"

#include <algorithm>
#include <cassert>
#include <thread>

#include "src/base/log.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"

namespace demos {

namespace {

// A producer blocked this long on one push logs a stall diagnostic (it keeps
// waiting; the harness timeout is the actual deadline).
constexpr std::chrono::milliseconds kStallWarning{5000};

// Both observability sinks are optional and sized by their owner; out-of-range
// machines (unit tests drive the router standalone) just go unobserved.
MetricShard* MetricsFor(MetricsEngine* engine, MachineId m) {
  return (engine != nullptr && m < static_cast<MachineId>(engine->shards())) ? &engine->shard(m)
                                                                             : nullptr;
}

FlightRecorder* FlightFor(FlightRecorderHub* hub, MachineId m) {
  return (hub != nullptr && m < static_cast<MachineId>(hub->shards())) ? &hub->recorder(m)
                                                                       : nullptr;
}

// Start pulling a frame's header toward this core: the sender wrote it on
// another core, so the receiver's first touch misses.  Issued for a whole
// batch before any frame is handled, the misses overlap instead of stalling
// Message::Deserialize one frame at a time.  Always inlined: GCC judges an
// out-of-line function whose only effect is a prefetch to be const and drops
// its calls.
[[gnu::always_inline]] inline void PrefetchHeader(const PayloadRef& frame) {
  if (!frame.empty()) {
    __builtin_prefetch(frame.data());
    __builtin_prefetch(frame.data() + std::min<std::size_t>(frame.size(), 64) - 1);
  }
}

// One lap of the idle spin loop: cheaper than a yield, keeps the core's
// speculative pipelines polite while polling.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

}  // namespace

ShardRouter::ShardRouter(int machines, ShardRouterConfig config) : config_(config) {
  inboxes_.reserve(static_cast<std::size_t>(machines));
  outboxes_.reserve(static_cast<std::size_t>(machines));
  for (int i = 0; i < machines; ++i) {
    inboxes_.push_back(std::make_unique<Inbox>(config_.mailbox_capacity));
    auto outbox = std::make_unique<Outbox>();
    outbox->staged.resize(static_cast<std::size_t>(machines));
    outbox->spin_budget = config_.spin_min;
    outboxes_.push_back(std::move(outbox));
  }
  clocks_.assign(static_cast<std::size_t>(machines), nullptr);
  flow_ = std::make_unique<FlowSlot[]>(static_cast<std::size_t>(machines) + 1);
}

std::uint64_t ShardRouter::sent() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i <= outboxes_.size(); ++i) {
    total += flow_[i].sent.load(std::memory_order_seq_cst);
  }
  return total;
}

std::uint64_t ShardRouter::consumed() const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < outboxes_.size(); ++i) {
    total += flow_[i].consumed.load(std::memory_order_seq_cst);
  }
  return total;
}

void ShardRouter::SetClock(MachineId node, const EventQueue* clock) {
  if (node < clocks_.size()) {
    clocks_[node] = clock;
  }
}

void ShardRouter::Attach(MachineId node, DeliveryHandler handler) {
  assert(node < inboxes_.size());
  inboxes_[node]->handler = std::move(handler);
}

void ShardRouter::SetObservability(MetricsEngine* metrics, FlightRecorderHub* flight) {
  metrics_ = metrics;
  flight_ = flight;
}

std::size_t ShardRouter::MailboxDepth(MachineId node) const {
  return inboxes_[node]->queue.ApproxSize();
}

std::size_t ShardRouter::SpillDepth(MachineId node) const {
  return inboxes_[node]->spill_depth.load(std::memory_order_relaxed);
}

void ShardRouter::Send(MachineId src, MachineId dst, PayloadRef payload) {
  assert(dst < inboxes_.size());
  const EventQueue* clock = src < clocks_.size() ? clocks_[src] : nullptr;
  const SimTime send_ts = clock != nullptr ? clock->Now() : 0;

  // Observability is attributed to the *sending* shard: its slab and its
  // flight recorder are single-writer from this thread by the Send contract.
  MetricShard* metrics = MetricsFor(metrics_, src);
  FlightRecorder* flight = FlightFor(flight_, src);

  // Count the frame before it is staged so the quiescence detector sees it
  // as in-flight for the whole stage+publish+pop+handle window.
  flow_[std::min<std::size_t>(src, outboxes_.size())].sent.fetch_add(1, std::memory_order_seq_cst);

  if (!batching_enabled_ || config_.max_batch_frames <= 1 || src >= outboxes_.size()) {
    // Batching off (single-threaded staging needs global send order), or a
    // sender outside the shard set (harness staging with a synthetic id):
    // publish the frame on its own.
    MailItem item;
    item.src = src;
    item.send_ts = send_ts;
    item.payload = std::move(payload);
    if (metrics != nullptr) {
      metrics->Observe(HistogramId::kBatchSize, 1);
    }
    PublishItem(src, dst, std::move(item), metrics, flight);
    return;
  }

  Outbox& outbox = *outboxes_[src];
  std::unique_ptr<Batch>& lane = outbox.staged[dst];
  if (lane == nullptr) {
    bool pool_hit = false;
    lane = outbox.batch_pool.Acquire(&pool_hit);
    if (!pool_hit) {
      // A full lane publishes at max_batch_frames, so a batch sized once
      // never regrows as it circulates between shards.
      lane->frames.reserve(config_.max_batch_frames);
    }
    lane->src = src;
    lane->frames.clear();
    outbox.dirty.push_back(dst);
    if (metrics != nullptr) {
      metrics->Inc(pool_hit ? CounterId::kPoolHits : CounterId::kPoolMisses);
    }
  }
  lane->frames.push_back(StagedFrame{send_ts, std::move(payload)});
  if (lane->frames.size() >= config_.max_batch_frames) {
    // Lane is full: publish mid-round.  The dst entry stays in `dirty`; the
    // end-of-round Flush tolerates duplicates and empty lanes.
    FlushLane(src, dst, metrics);
  }
}

std::size_t ShardRouter::Flush(MachineId src) {
  if (src >= outboxes_.size()) {
    return 0;
  }
  Outbox& outbox = *outboxes_[src];
  if (outbox.dirty.empty()) {
    return 0;
  }
  MetricShard* metrics = MetricsFor(metrics_, src);
  std::size_t published = 0;
  for (std::size_t i = 0; i < outbox.dirty.size(); ++i) {
    const MachineId dst = outbox.dirty[i];
    if (outbox.staged[dst] != nullptr) {
      published += outbox.staged[dst]->frames.size();
      FlushLane(src, dst, metrics);
    }
  }
  outbox.dirty.clear();
  return published;
}

void ShardRouter::FlushAll() {
  for (std::size_t src = 0; src < outboxes_.size(); ++src) {
    Flush(static_cast<MachineId>(src));
  }
}

void ShardRouter::SetBatchingEnabled(bool enabled) {
  if (batching_enabled_ && !enabled) {
    // Leaving batching mode: nothing may stay invisible in a lane.
    FlushAll();
  }
  batching_enabled_ = enabled;
}

std::size_t ShardRouter::StagedFrames(MachineId src) const {
  if (src >= outboxes_.size()) {
    return 0;
  }
  const Outbox& outbox = *outboxes_[src];
  std::size_t staged = 0;
  for (const auto& lane : outbox.staged) {
    if (lane != nullptr) {
      staged += lane->frames.size();
    }
  }
  return staged;
}

void ShardRouter::FlushLane(MachineId src, MachineId dst, MetricShard* metrics) {
  Outbox& outbox = *outboxes_[src];
  std::unique_ptr<Batch> lane = std::move(outbox.staged[dst]);
  if (lane == nullptr) {
    return;
  }
  if (lane->frames.empty()) {
    outbox.batch_pool.Release(std::move(lane));
    return;
  }
  if (metrics != nullptr) {
    metrics->Observe(HistogramId::kBatchSize, lane->frames.size());
  }
  MailItem item;
  item.src = src;
  // The sender's clock is monotone within a round, so the first staged frame
  // carries the batch's earliest timestamp (what LBTS reasoning needs; each
  // frame still keeps its own exact send_ts for the sync drain).
  item.send_ts = lane->frames.front().send_ts;
  if (lane->frames.size() == 1) {
    item.payload = std::move(lane->frames.front().payload);
    lane->frames.clear();
    outbox.batch_pool.Release(std::move(lane));
  } else {
    item.batch = std::move(lane);
  }
  PublishItem(src, dst, std::move(item), metrics, FlightFor(flight_, src));
}

void ShardRouter::PublishItem(MachineId src, MachineId dst, MailItem item, MetricShard* metrics,
                              FlightRecorder* flight) {
  Inbox& inbox = *inboxes_[dst];
  if (metrics != nullptr) {
    metrics->Inc(CounterId::kMailboxPushes);
  }
  if (flight != nullptr) {
    flight->Record(FrEvent::kMailboxPush, dst);
  }

  if (!inbox.queue.TryPush(item)) {
    backpressure_hits_.fetch_add(1, std::memory_order_relaxed);
    if (metrics != nullptr) {
      metrics->Inc(CounterId::kBackpressureStalls);
    }
    std::size_t spins = 0;
    const auto blocked_since = std::chrono::steady_clock::now();
    bool warned = false;
    bool elision_counted = false;
    do {
      // The consumer may be parked behind a full mailbox it has not started
      // draining yet; make sure it is running before we wait on it.  A
      // running or spinning consumer is already on its way to the mailbox,
      // so the notify is elided (this loop used to notify unconditionally,
      // stealing a syscall per lap from a consumer that was busy draining).
      if (inbox.consumer_state.load(std::memory_order_acquire) == kConsumerParked) {
        Wake(dst);
      } else if (!elision_counted) {
        elision_counted = true;
        if (metrics != nullptr) {
          metrics->Inc(CounterId::kNotifiesElided);
        }
      }
      // Deadlock escape: dst's consumer may itself be blocked pushing into
      // *our* full ring.  Emptying our ring into our spill (no handlers run)
      // unblocks it, which guarantees global progress for any cycle of full
      // mailboxes while keeping the stall a real backpressure wait.
      if (RescueOwnInbox(src) == 0) {
        if (spins++ < config_.spin_before_yield) {
          // busy retry
        } else {
          std::this_thread::yield();
          if (!warned &&
              std::chrono::steady_clock::now() - blocked_since > kStallWarning) {
            warned = true;
            DEMOS_LOG(kWarn, "router")
                << "send m" << src << "->m" << dst << " blocked >"
                << kStallWarning.count() << "ms on a full mailbox; still waiting";
          }
        }
      }
    } while (!inbox.queue.TryPush(item));
    if (metrics != nullptr) {
      metrics->Observe(HistogramId::kPushStallSpins, spins);
    }
    if (flight != nullptr) {
      flight->Record(FrEvent::kBackpressure, dst, spins);
    }
  }

  // Producer/consumer handshake against a lost wakeup: the push above
  // (release store) must be ordered before the state check, and the consumer
  // orders its state store before re-checking the mailbox.  Only a parked
  // consumer needs the notify syscall; a spinning one will see the push on
  // its next poll (counted as an elision -- the park-only design would have
  // notified it).
  std::atomic_thread_fence(std::memory_order_seq_cst);
  const int state = inbox.consumer_state.load(std::memory_order_relaxed);
  if (state == kConsumerParked) {
    Wake(dst);
  } else if (state == kConsumerSpinning) {
    if (metrics != nullptr) {
      metrics->Inc(CounterId::kNotifiesElided);
    }
  }
}

std::size_t ShardRouter::RescueOwnInbox(MachineId src) {
  if (src >= inboxes_.size()) {
    return 0;
  }
  Inbox& inbox = *inboxes_[src];
  std::size_t rescued = 0;
  MailItem item;
  while (inbox.queue.TryPop(item)) {
    rescued += item.batch != nullptr ? item.batch->frames.size() : 1;
    inbox.spill.push_back(std::move(item));
  }
  if (rescued != 0) {
    spill_rescues_.fetch_add(rescued, std::memory_order_relaxed);
    inbox.spill_depth.store(inbox.spill.size(), std::memory_order_relaxed);
    if (MetricShard* metrics = MetricsFor(metrics_, src)) {
      metrics->Inc(CounterId::kSpillRescued, rescued);
    }
    if (FlightRecorder* flight = FlightFor(flight_, src)) {
      flight->Record(FrEvent::kSpillEnter, rescued);
    }
  }
  return rescued;
}

template <typename OnFrame>
std::size_t ShardRouter::DrainWith(MachineId node, std::size_t max_items, OnFrame&& on_frame) {
  Inbox& inbox = *inboxes_[node];
  std::size_t drained = 0;
  std::size_t from_spill = 0;
  MailItem item;
  while (drained < max_items) {
    // Spill first: everything there predates everything still in the ring.
    if (!inbox.spill.empty()) {
      item = std::move(inbox.spill.front());
      inbox.spill.pop_front();
      ++from_spill;
    } else if (!inbox.queue.TryPop(item)) {
      break;
    }
    if (item.batch != nullptr) {
      // A batch is handled whole (frames of one link must not interleave
      // with a later publish), so `drained` may overshoot max_items.  Frames
      // keep their own timestamps: a later frame is scheduled at ITS send_ts
      // + latency, never at the batch head's, so batching can only make
      // arrivals later-or-equal, never earlier.
      for (const StagedFrame& frame : item.batch->frames) {
        PrefetchHeader(frame.payload);
      }
      for (StagedFrame& frame : item.batch->frames) {
        on_frame(item.src, frame.send_ts, std::move(frame.payload));
        ++drained;
      }
      item.batch->frames.clear();
      // Recycle the buffer through this shard's own pool (owner thread):
      // batch buffers circulate sender -> consumer without a lock.
      if (node < outboxes_.size()) {
        outboxes_[node]->batch_pool.Release(std::move(item.batch));
      } else {
        item.batch.reset();
      }
    } else {
      PrefetchHeader(item.payload);
      on_frame(item.src, item.send_ts, std::move(item.payload));
      ++drained;
    }
  }
  if (drained != 0) {
    // After the per-frame calls: a message is "consumed" only once every
    // effect it had on this shard (including sends it triggered, already
    // counted as sent, or its delivery event, which the LBTS floors cover)
    // is visible.
    flow_[node].consumed.fetch_add(drained, std::memory_order_seq_cst);
    MetricShard* metrics = MetricsFor(metrics_, node);
    FlightRecorder* flight = FlightFor(flight_, node);
    if (from_spill != 0) {
      inbox.spill_depth.store(inbox.spill.size(), std::memory_order_relaxed);
      if (metrics != nullptr) {
        metrics->Inc(CounterId::kSpillDrained, from_spill);
      }
      if (flight != nullptr) {
        flight->Record(FrEvent::kSpillExit, from_spill);
      }
    }
    if (metrics != nullptr) {
      metrics->Inc(CounterId::kMsgsDrained, drained);
      metrics->Inc(CounterId::kDrainBatches);
      metrics->Observe(HistogramId::kDrainBatchSize, drained);
    }
    if (flight != nullptr) {
      flight->Record(FrEvent::kDrainBatch, drained);
    }
  }
  return drained;
}

std::size_t ShardRouter::Drain(MachineId node, std::size_t max_items) {
  const DeliveryHandler& handler = inboxes_[node]->handler;
  return DrainWith(node, max_items, [&handler](MachineId src, SimTime, PayloadRef payload) {
    handler(src, std::move(payload));
  });
}

std::size_t ShardRouter::DrainTimed(MachineId node, std::size_t max_items,
                                    const TimedSink& sink) {
  return DrainWith(node, max_items, sink);
}

bool ShardRouter::HasMail(MachineId node) const {
  const Inbox& inbox = *inboxes_[node];
  return !inbox.spill.empty() || !inbox.queue.Empty();
}

void ShardRouter::IdleWait(MachineId node, std::chrono::microseconds timeout,
                           const std::function<bool()>& has_work) {
  Inbox& inbox = *inboxes_[node];
  MetricShard* metrics = MetricsFor(metrics_, node);
  Outbox* outbox = node < outboxes_.size() ? outboxes_[node].get() : nullptr;

  // ---- Spin window: poll for work before paying for the condvar. ----
  const std::size_t budget =
      outbox != nullptr ? outbox->spin_budget : config_.spin_min;
  if (budget > 0) {
    inbox.consumer_state.store(kConsumerSpinning, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::size_t iters = 0;
    bool found = false;
    while (iters < budget) {
      if (has_work()) {
        found = true;
        break;
      }
      ++iters;
      CpuRelax();
    }
    if (metrics != nullptr && iters != 0) {
      metrics->Inc(CounterId::kSpinIters, iters);
    }
    if (found) {
      inbox.consumer_state.store(kConsumerRunning, std::memory_order_relaxed);
      if (metrics != nullptr) {
        metrics->Inc(CounterId::kParksAvoided);
      }
      if (outbox != nullptr) {
        // Work arrived inside the window: observed inter-arrival gap is
        // shorter than the budget, so widen it (capped) -- cheaper spins,
        // fewer parks while traffic is flowing.
        outbox->spin_budget = std::min(budget * 2 + 1, config_.spin_max);
      }
      return;
    }
    if (outbox != nullptr) {
      // Window expired empty: gaps here are long, shrink toward the floor so
      // a genuinely idle shard stops burning its core before parking.
      outbox->spin_budget = std::max(budget / 2, config_.spin_min);
    }
  }

  // ---- Park: advertise, re-check, block. ----
  std::unique_lock<std::mutex> lock(inbox.mu);
  inbox.consumer_state.store(kConsumerParked, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  // Re-check under the advertised parked state: any producer that pushed
  // before seeing kConsumerParked is caught here, any producer that pushes
  // after will see the state and notify.
  if (!has_work()) {
    FlightRecorder* flight = FlightFor(flight_, node);
    if (metrics != nullptr) {
      metrics->Inc(CounterId::kCondvarParks);
    }
    if (flight != nullptr) {
      flight->Record(FrEvent::kParkBegin);
    }
    const auto parked_at = std::chrono::steady_clock::now();
    inbox.cv.wait_for(lock, timeout);
    if (metrics != nullptr) {
      metrics->Observe(HistogramId::kParkWaitUs,
                       static_cast<std::uint64_t>(
                           std::chrono::duration_cast<std::chrono::microseconds>(
                               std::chrono::steady_clock::now() - parked_at)
                               .count()));
    }
    if (flight != nullptr) {
      // Wake() runs on foreign threads and must not touch this shard's
      // recorder; the park-end record (with "woke to work" evidence) is the
      // owner-thread footprint of a wakeup.
      flight->Record(FrEvent::kParkEnd, has_work() ? 1 : 0);
    }
  }
  inbox.consumer_state.store(kConsumerRunning, std::memory_order_relaxed);
}

void ShardRouter::Wake(MachineId node) {
  Inbox& inbox = *inboxes_[node];
  {
    // Taking the mutex pairs the notify with the consumer's check-then-wait
    // window; notifying without it could land between the two.
    std::lock_guard<std::mutex> lock(inbox.mu);
  }
  inbox.cv.notify_one();
  // The slab's one foreign write: any thread may wake the shard, so this
  // counter takes a locked add (cold -- we just paid for a mutex and a
  // notify).
  if (MetricShard* metrics = MetricsFor(metrics_, node)) {
    metrics->IncShared(CounterId::kCondvarNotifies);
  }
}

void ShardRouter::WakeAll() {
  for (std::size_t i = 0; i < inboxes_.size(); ++i) {
    Wake(static_cast<MachineId>(i));
  }
}

}  // namespace demos
