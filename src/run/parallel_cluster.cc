#include "src/run/parallel_cluster.h"

#include <algorithm>
#include <utility>

#include "src/base/pool.h"
#include "src/obs/trace_export.h"

namespace demos {

namespace {

bool DeadlinesArmed(const KernelConfig& kc) {
  return kc.migration_deadlines.offer_accept_us != 0 ||
         kc.migration_deadlines.transfer_progress_us != 0 ||
         kc.migration_deadlines.handoff_us != 0;
}

SimDuration MinArmedDeadline(const KernelConfig& kc) {
  SimDuration min = kSimTimeNever;
  for (const SimDuration d : {kc.migration_deadlines.offer_accept_us,
                              kc.migration_deadlines.transfer_progress_us,
                              kc.migration_deadlines.handoff_us}) {
    if (d != 0 && d < min) {
      min = d;
    }
  }
  return min;
}

// One polite lap of a poll loop (same as the router's idle spin).
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

// Coordinator poll pacing: the sync coordinator no longer sleeps a fixed
// 100-200us between snapshots (that sleep used to be the dominant per-window
// cost -- two snapshots per window put 200us+ of wall clock on every bound
// advance).  Instead it re-polls immediately for a short burst, yields while
// shards still hold the cores, and only falls back to a real sleep when the
// cluster has been un-blocked for a long stretch (a shard stuck in a big
// drain, or genuine multi-ms work).
inline void CoordinatorBackoff(std::size_t laps) {
  if (laps < 256) {
    CpuRelax();
  } else if (laps < 8192) {
    std::this_thread::yield();
  } else {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

// Fold this shard thread's allocation-pool stats (thread-local, monotonic)
// into its metrics slab as deltas.  Called at idle edges and on loop exit --
// cheap, and often enough for the sampler to see pool behaviour evolve.
void FoldPoolStats(MetricShard* metrics, PoolThreadStats& last) {
  if (metrics == nullptr) {
    return;
  }
  const PoolThreadStats cur = PayloadBufferPool::ThreadStats();
  if (cur.hits != last.hits) {
    metrics->Inc(CounterId::kPoolHits, cur.hits - last.hits);
  }
  if (cur.misses != last.misses) {
    metrics->Inc(CounterId::kPoolMisses, cur.misses - last.misses);
  }
  last = cur;
}

}  // namespace

ParallelCluster::ParallelCluster(ParallelClusterConfig config) : config_(config) {
  const EngineConfig core = config.EngineCore();
  router_ = std::make_unique<ShardRouter>(config.machines, config.router);
  // machines+1 observability slots: one per shard plus the coordinator slot
  // for the quiescence poller (RunUntilQuiescent runs on the caller thread).
  EngineObservability obs = MakeObservability(core);
  metrics_ = std::move(obs.metrics);
  flight_ = std::move(obs.flight);
  router_->SetObservability(metrics_.get(), flight_.get());
  // Migration deadlines are virtual-time policies; they only mean anything
  // when the shard clocks agree, so arming any phase forces sync on.
  sync_enabled_ = config.sync.enabled || DeadlinesArmed(config.kernel);
  if (sync_enabled_) {
    latency_ = std::make_unique<LinkLatencyTable>(config.machines,
                                                  config.sync.min_link_latency_us);
    for (const auto& link : config.sync.links) {
      if (link.src < static_cast<MachineId>(config.machines) &&
          link.dst < static_cast<MachineId>(config.machines)) {
        latency_->SetLink(link.src, link.dst, link.min_latency_us);
      }
    }
    lbts_ = std::make_unique<LbtsState>(config.machines);
    // Adaptive lookahead: relaxed windows are capped at wide_window_spans x
    // the static base span, and -- when deadline watchdogs can arm -- at a
    // quarter of the shortest armed deadline, so the one-window clock skew a
    // wide era can leave behind stays far below anything a watchdog measures.
    const SimDuration base = latency_->MinLookahead();
    SimDuration wide_span =
        static_cast<SimDuration>(config.sync.wide_window_spans) * base;
    if (wide_span > 0 && DeadlinesArmed(config.kernel)) {
      wide_span = std::min(wide_span, MinArmedDeadline(config.kernel) / 4);
    }
    if (wide_span <= base) {
      wide_span = 0;  // no wider than a tight window: relaxing buys nothing
    }
    wide_span_ = wide_span;
    if (wide_span_ > 0) {
      // Keep the learned-lookahead ceiling consistent with the wide-span cap
      // (both feed the same skew bound).
      const std::uint32_t span_cap =
          static_cast<std::uint32_t>(std::min<SimDuration>(wide_span_ / base, 1u << 20));
      const std::uint32_t growth_cap =
          std::max(1u, std::min(config.sync.lookahead_growth_cap, span_cap));
      adaptive_ = std::make_unique<AdaptiveLookahead>(*latency_, growth_cap,
                                                      config.sync.lookahead_window);
      router_->SetLookahead(adaptive_.get());
    }
  }
  shards_.reserve(static_cast<std::size_t>(config.machines));
  for (int i = 0; i < config.machines; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->machine = static_cast<MachineId>(i);
    shard->kernel = std::make_unique<Kernel>(shard->machine, &shard->queue, router_.get(),
                                             DeriveKernelConfig(core, i));
    WireKernelObservability(core, *shard->kernel, flight_.get(), i);
    if (metrics_) {
      shard->queue.SetMetrics(&metrics_->shard(i));
    }
    // Frames carry the sender's virtual clock even in free-running mode (the
    // stamp is one load; only the sync drain path reads it).
    router_->SetClock(shard->machine, &shard->queue);
    shards_.push_back(std::move(shard));
  }
}

ParallelCluster::~ParallelCluster() { Stop(); }

void ParallelCluster::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  // Single-threaded setup (harness injections, fixtures sending before
  // Start) publishes immediately in global send order; batching starts only
  // now, when every subsequent Send comes from the one thread that owns its
  // source shard and per-link FIFO is the only order the engine guarantees.
  // FlushAll covers staged leftovers from a previous Start/Stop cycle.
  router_->FlushAll();
  router_->SetBatchingEnabled(true);
  stop_.store(false, std::memory_order_release);
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    s->idle.store(false, std::memory_order_seq_cst);
    if (sync_enabled_) {
      s->thread = std::thread([this, s] { ShardMainSync(*s); });
    } else {
      s->thread = std::thread([this, s] { ShardMain(*s); });
    }
  }
}

void ParallelCluster::Stop() {
  if (!started_) {
    return;
  }
  stop_.store(true, std::memory_order_release);
  router_->WakeAll();
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) {
      shard->thread.join();
    }
  }
  // Back to single-threaded staging mode; flushes any frames a shard staged
  // in its final round so they are waiting in the mailboxes come next Start.
  router_->SetBatchingEnabled(false);
  started_ = false;
}

void ParallelCluster::Post(MachineId m, std::function<void()> fn) {
  Shard& shard = *shards_[m];
  posted_.fetch_add(1, std::memory_order_seq_cst);
  {
    std::lock_guard<std::mutex> lock(shard.posted_mu);
    shard.posted.push_back(std::move(fn));
    shard.posted_count.fetch_add(1, std::memory_order_seq_cst);
  }
  router_->Wake(m);
}

void ParallelCluster::ScheduleOn(MachineId m, SimTime at, std::function<void()> fn) {
  if (!started_) {
    shards_[m]->queue.At(at, std::move(fn));
    return;
  }
  // While running, only shard m's thread may touch its queue.
  Post(m, [this, m, at, fn = std::move(fn)]() mutable {
    shards_[m]->queue.At(at, std::move(fn));
  });
}

void ParallelCluster::Execute(MachineId m, std::function<void()> fn) {
  if (!started_) {
    fn();
    return;
  }
  Post(m, std::move(fn));
}

SettleResult ParallelCluster::RunUntilSettled(std::size_t /*max_events*/) {
  SettleResult out;
  const std::uint64_t before = TotalEventsExecuted();
  out.settled = RunUntilQuiescent(config_.settle_timeout);
  out.events = static_cast<std::size_t>(TotalEventsExecuted() - before);
  return out;
}

std::uint64_t ParallelCluster::TotalEventsExecuted() const {
  if (!metrics_) {
    return 0;
  }
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += metrics_->shard(shard->machine).Counter(CounterId::kEventsExecuted);
  }
  return total;
}

// Both idle predicates run per lap of IdleWait's spin window: everything
// they touch is an atomic or a heap-top read (posted_count mirrors the
// posted vector so the spin never takes posted_mu).
bool ParallelCluster::HasLocalWork(Shard& shard) {
  return !shard.queue.Empty() || router_->HasMail(shard.machine) ||
         shard.posted_count.load(std::memory_order_seq_cst) != 0;
}

bool ParallelCluster::HasSyncWork(Shard& shard, std::uint64_t epoch) {
  if (lbts_->epoch() != epoch || router_->HasMail(shard.machine)) {
    return true;
  }
  if (shard.queue.NextEventTime() <= lbts_->bound()) {
    return true;
  }
  return shard.posted_count.load(std::memory_order_seq_cst) != 0;
}

std::size_t ParallelCluster::DrainPosted(Shard& shard) {
  std::vector<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> lock(shard.posted_mu);
    batch.swap(shard.posted);
  }
  for (auto& fn : batch) {
    fn();
    posted_done_.fetch_add(1, std::memory_order_seq_cst);
  }
  if (!batch.empty()) {
    shard.posted_count.fetch_sub(batch.size(), std::memory_order_seq_cst);
  }
  return batch.size();
}

void ParallelCluster::ScheduleDelivery(Shard& shard, MachineId src, SimTime send_ts,
                                       PayloadRef payload) {
  SimTime arrival = send_ts + latency_->Latency(src, shard.machine);
  if (arrival < shard.queue.Now()) {
    // A frame from the receiver's virtual past.  Never deliver backwards in
    // time: clamp to now (exactly-once and per-link FIFO are unaffected) and
    // classify.  After any wide window this is the expected, bounded residue
    // of relaxed timing (wide_frames_clamped); in a never-widened run the
    // strict LBTS proof (virtual_time.h) makes it impossible, so any nonzero
    // sync_frames_clamped count is a sync bug.
    arrival = shard.queue.Now();
    if (metrics_) {
      metrics_->shard(shard.machine)
          .Inc(lbts_->ever_wide() ? CounterId::kWideFramesClamped
                                  : CounterId::kSyncFramesClamped);
    }
  }
  const MachineId me = shard.machine;
  shard.queue.At(arrival, [this, me, src, payload = std::move(payload)]() mutable {
    router_->Deliver(me, src, std::move(payload));
  });
}

void ParallelCluster::ShardMain(Shard& shard) {
  MetricShard* metrics = metrics_ ? &metrics_->shard(shard.machine) : nullptr;
  Tracer& tracer = shard.kernel->tracer();
  PoolThreadStats pool_last{};
  const auto fold_pool_stats = [&] { FoldPoolStats(metrics, pool_last); };
  // First clock-sync point: the exporter needs at least one (virtual, real)
  // correspondence per shard to place this shard's events on the shared axis.
  tracer.RecordClockSync(shard.queue.Now(), FrSteadyClock(nullptr));
  while (!stop_.load(std::memory_order_acquire)) {
    std::size_t did = 0;
    did += router_->Drain(shard.machine, config_.drain_batch);
    const std::size_t posted = DrainPosted(shard);
    did += posted;
    std::size_t steps = 0;
    while (steps < config_.event_batch && shard.queue.Step()) {
      ++steps;
    }
    did += steps;
    // End of the scheduling round: publish every destination lane this round
    // staged (one mailbox push per destination).  A did==0 round staged
    // nothing, so an idle shard never sits on unpublished frames.
    router_->Flush(shard.machine);
    if (did != 0) {
      if (metrics != nullptr) {
        metrics->Inc(CounterId::kSchedulerRounds);
        if (posted != 0) {
          metrics->Inc(CounterId::kPostedTasks, posted);
        }
        if (steps != 0) {
          metrics->Observe(HistogramId::kEventsPerRound, steps);
        }
      }
      if (posted != 0 && flight_) {
        flight_->recorder(shard.machine).Record(FrEvent::kPostedTask, posted);
      }
      continue;
    }
    // Nothing anywhere this round (so the event queue is empty; it can only
    // refill through mail or posted work, which the quiescence counters see).
    // The virtual clock is frozen while parked, which makes this a clean
    // clock-sync point for trace normalization.
    if (metrics != nullptr) {
      metrics->Set(GaugeId::kEventQueueDepth,
                   static_cast<std::int64_t>(shard.queue.PendingEvents()));
    }
    tracer.RecordClockSync(shard.queue.Now(), FrSteadyClock(nullptr));
    fold_pool_stats();
    shard.idle.store(true, std::memory_order_seq_cst);
    router_->IdleWait(shard.machine, config_.idle_park, [this, &shard] {
      return HasLocalWork(shard) || stop_.load(std::memory_order_relaxed);
    });
    shard.idle.store(false, std::memory_order_seq_cst);
  }
  fold_pool_stats();
}

void ParallelCluster::ShardMainSync(Shard& shard) {
  MetricShard* metrics = metrics_ ? &metrics_->shard(shard.machine) : nullptr;
  Tracer& tracer = shard.kernel->tracer();
  PoolThreadStats pool_last{};
  const auto fold_pool_stats = [&] { FoldPoolStats(metrics, pool_last); };
  tracer.RecordClockSync(shard.queue.Now(), FrSteadyClock(nullptr));
  const MachineId me = shard.machine;
  const ShardRouter::TimedSink sink = [this, &shard](MachineId src, SimTime send_ts,
                                                     PayloadRef payload) {
    ScheduleDelivery(shard, src, send_ts, std::move(payload));
  };
  bool was_tight = false;
  while (!stop_.load(std::memory_order_acquire)) {
    // Snapshot the window first, then advertise busy *before* consuming any
    // input: the coordinator's double snapshot relies on every consumption
    // being bracketed by busy==true or a fresh floor (virtual_time.h).
    const std::uint64_t epoch = lbts_->epoch();
    const SimTime bound = lbts_->bound();
    lbts_->MarkBusy(me);
    std::size_t did = 0;
    did += router_->DrainTimed(me, config_.drain_batch, sink);
    const std::size_t posted = DrainPosted(shard);
    did += posted;
    std::size_t steps = 0;
    while (steps < config_.event_batch && shard.queue.StepIfAtMost(bound)) {
      ++steps;
    }
    did += steps;
    // Tight-consumer poll, every round and *before* this round's lanes
    // publish: if an event above just started a migration, the learned
    // lookahead collapses to the static minimum before the offer frame is
    // even visible to its destination.
    const bool tight = shard.kernel->NeedsTightTime();
    if (tight && !was_tight && adaptive_ != nullptr) {
      if (adaptive_->Collapse(me) && metrics != nullptr) {
        metrics->Inc(CounterId::kLookaheadShrinks);
      }
    }
    was_tight = tight;
    // Publish this round's staged lanes before the idle check: the LBTS
    // floors below must never be published while frames sit staged (a did==0
    // round staged nothing, so the order is safe).
    router_->Flush(me);
    if (did != 0) {
      if (metrics != nullptr) {
        metrics->Inc(CounterId::kSchedulerRounds);
        if (posted != 0) {
          metrics->Inc(CounterId::kPostedTasks, posted);
        }
        if (steps != 0) {
          metrics->Observe(HistogramId::kEventsPerRound, steps);
        }
      }
      if (posted != 0 && flight_) {
        flight_->recorder(me).Record(FrEvent::kPostedTask, posted);
      }
      continue;
    }
    // Blocked on the window: no mail, no posted work, and the next local
    // event (if any) is past the bound.  Publish the floor for this epoch
    // and park until the coordinator opens the next window.
    if (metrics != nullptr) {
      metrics->Set(GaugeId::kEventQueueDepth,
                   static_cast<std::int64_t>(shard.queue.PendingEvents()));
    }
    tracer.RecordClockSync(shard.queue.Now(), FrSteadyClock(nullptr));
    fold_pool_stats();
    shard.idle.store(true, std::memory_order_seq_cst);
    lbts_->PublishIdle(me, epoch, shard.queue.NextEventTime(), tight);
    router_->IdleWait(me, config_.idle_park, [this, &shard, epoch] {
      return HasSyncWork(shard, epoch) || stop_.load(std::memory_order_relaxed);
    });
    shard.idle.store(false, std::memory_order_seq_cst);
  }
  fold_pool_stats();
}

ParallelCluster::Snapshot ParallelCluster::TakeSnapshot() const {
  // Idle flags first, and nothing else until every one is set: the flow
  // slots are written by running shards, and a coordinator polling them
  // mid-round would pull those lines away from their writers on every lap.
  Snapshot snap;
  for (const auto& shard : shards_) {
    if (!shard->idle.load(std::memory_order_seq_cst)) {
      return snap;
    }
  }
  snap.all_idle = true;
  // consumed before sent: a frame is counted sent before it can be consumed,
  // so this order never reads consumed > sent.
  snap.consumed = router_->consumed();
  snap.sent = router_->sent();
  snap.posted = posted_.load(std::memory_order_seq_cst);
  snap.posted_done = posted_done_.load(std::memory_order_seq_cst);
  return snap;
}

bool ParallelCluster::RunUntilQuiescent(std::chrono::milliseconds timeout) {
  Start();
  // Coordinator-slot observability: quiescence polling happens on the caller
  // thread, so it gets its own slab/recorder rather than racing a shard's.
  MetricShard* coord = metrics_ ? &metrics_->shard(coordinator_slot()) : nullptr;
  FlightRecorder* coord_flight = flight_ ? &flight_->recorder(coordinator_slot()) : nullptr;
  if (sync_enabled_) {
    return RunUntilQuiescentSync(timeout, coord, coord_flight);
  }
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  Snapshot prev;
  bool have_prev = false;
  while (std::chrono::steady_clock::now() < deadline) {
    Snapshot snap = TakeSnapshot();
    if (coord != nullptr) {
      coord->Inc(CounterId::kQuiescencePolls);
      if (snap.Quiet()) {
        coord->Inc(CounterId::kQuiescenceVotes);
      }
    }
    if (coord_flight != nullptr) {
      coord_flight->Record(FrEvent::kQuiescenceVote, snap.Quiet() ? 1 : 0,
                           snap.sent - snap.consumed);
    }
    if (snap.Quiet()) {
      // One quiet snapshot can race a message between the counter reads; two
      // quiet snapshots with *unchanged* monotonic counters cannot -- any
      // work in between would have bumped sent/consumed/posted.
      if (have_prev && prev.SameCounters(snap)) {
        return true;
      }
      prev = snap;
      have_prev = true;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    } else {
      have_prev = false;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  return false;
}

bool ParallelCluster::RunUntilQuiescentSync(std::chrono::milliseconds timeout,
                                            MetricShard* coord, FlightRecorder* coord_flight) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  Snapshot prev;
  LbtsState::ShardView prev_view;
  bool have_prev = false;
  std::size_t idle_laps = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    // The base snapshot rules out in-flight mail and posted work; the LBTS
    // view rules out a shard mid-round (busy) or still on an older window
    // (done_epoch lag), and carries the floors the next bound derives from.
    // The view is read only once the snapshot is quiet, for the same reason
    // the snapshot reads the flow slots only after the idle flags.
    Snapshot snap = TakeSnapshot();
    LbtsState::ShardView view;
    bool blocked = false;
    if (snap.Quiet()) {
      view = lbts_->View();
      blocked = !view.any_busy && view.all_done;
    }
    if (coord != nullptr) {
      coord->Inc(CounterId::kQuiescencePolls);
      if (blocked) {
        coord->Inc(CounterId::kQuiescenceVotes);
      }
    }
    if (!blocked) {
      have_prev = false;
      // Spin-poll with escalating backoff instead of a fixed sleep: while
      // shards are mid-window the coordinator's only job is to notice the
      // moment they block, and a 200us nap per poll used to serialize every
      // window behind it.  A shard parked on an exhausted window is caught
      // within its own idle-spin budget, so consecutive bounds chain without
      // anyone re-parking (the multi-window drain per wake).
      CoordinatorBackoff(++idle_laps);
      continue;
    }
    if (coord_flight != nullptr) {
      coord_flight->Record(FrEvent::kQuiescenceVote, 1, snap.sent - snap.consumed);
    }
    if (!have_prev || !prev.SameCounters(snap) || !prev_view.Same(view)) {
      // First quiet observation (or the cluster moved): confirm with a
      // second identical snapshot before trusting the floors.  The
      // double-snapshot argument is about interleaving -- any work between
      // the two bumps a monotonic counter -- not elapsed time, so the
      // confirming read follows immediately.
      prev = snap;
      prev_view = std::move(view);
      have_prev = true;
      CpuRelax();
      continue;
    }
    // Verified: every shard is blocked on the current window with these
    // floors, and nothing is in flight.  Either everything is drained
    // (quiescent) or the cluster earns the next window -- strictly
    // conservative while any shard is tight, relaxed (learned lookahead +
    // wide span) otherwise.
    SimTime next;
    bool widened = false;
    if (!view.any_tight && wide_span_ > 0) {
      next = lbts_->NextRelaxedBound(view.floors, *latency_, adaptive_.get(), wide_span_,
                                     &widened);
    } else {
      next = lbts_->NextBound(view.floors, *latency_);
    }
    if (next == kSimTimeNever) {
      return true;
    }
    const SimTime old_bound = lbts_->bound();
    lbts_->OpenWindow(next, widened);
    if (coord != nullptr) {
      coord->Inc(CounterId::kLbtsWindows);
      if (widened) {
        coord->Inc(CounterId::kWideWindowsOpened);
      }
      coord->Set(GaugeId::kLbtsBoundUs, static_cast<std::int64_t>(next));
      coord->Observe(HistogramId::kLbtsWindowSpanUs, next - old_bound);
    }
    if (coord_flight != nullptr) {
      coord_flight->Record(FrEvent::kLbtsWindow, lbts_->epoch(), next);
    }
    router_->WakeAll();
    have_prev = false;
    idle_laps = 0;
  }
  return false;
}

void ParallelCluster::RefreshDepthGauges() {
  if (!metrics_) {
    return;
  }
  for (const auto& shard : shards_) {
    MetricShard& slab = metrics_->shard(shard->machine);
    slab.Set(GaugeId::kMailboxDepth,
             static_cast<std::int64_t>(router_->MailboxDepth(shard->machine)));
    slab.Set(GaugeId::kSpillDepth,
             static_cast<std::int64_t>(router_->SpillDepth(shard->machine)));
  }
}

Tracer ParallelCluster::TotalTraceNormalized() const {
  Tracer merged = TotalTrace();
  Tracer normalized;
  normalized.Enable();
  for (const TraceEvent& ev : NormalizeShardClocks(merged.events(), merged.sync_points())) {
    normalized.RecordEvent(ev);
  }
  return normalized;
}

}  // namespace demos
