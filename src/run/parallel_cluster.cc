#include "src/run/parallel_cluster.h"

#include <algorithm>
#include <utility>

#include "src/base/pool.h"
#include "src/obs/trace_export.h"

namespace demos {

namespace {

// Local events run per round before the mailbox is polled again.
constexpr std::size_t kEventBatch = 256;
// Mailbox messages handled per round before the shard looks at its event
// queue again (receive-side batching).
constexpr std::size_t kDrainBatch = 128;
// How long a shard with nothing to do parks before rechecking (also the
// recovery bound for a theoretically lost wakeup).
constexpr std::chrono::microseconds kIdlePark{200};

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
  // machines+1 observability slots: one per shard plus the window slot that
  // the closing shards write (coordinator_slot()).
  EngineObservability obs = MakeObservability(core);
  metrics_ = std::move(obs.metrics);
  flight_ = std::move(obs.flight);
  router_->SetObservability(metrics_.get(), flight_.get());
  // Migration deadlines are virtual-time policies; they only mean anything
  // when the shard clocks agree, so arming any phase forces sync on.
  sync_enabled_ = config.sync.enabled || DeadlinesArmed(config.kernel);
  if (sync_enabled_) {
    // A zero-latency link would make the LBTS bound unable to advance.
    lookahead_ = std::max<SimDuration>(1, config.sync.min_link_latency_us);
    // Wide windows are capped at wide_window_spans x L, and -- when deadline
    // watchdogs can arm -- at a quarter of the shortest armed deadline, so the
    // one-window clock skew a wide era can leave behind stays far below
    // anything a watchdog measures.  A span no wider than L never widens.
    wide_span_ = static_cast<SimDuration>(config.sync.wide_window_spans) * lookahead_;
    if (DeadlinesArmed(config.kernel)) {
      wide_span_ = std::min(wide_span_, MinArmedDeadline(config.kernel) / 4);
    }
  }
  // Free-running: one window over all of virtual time.
  lbts_ = std::make_unique<LbtsState>(config.machines, sync_enabled_ ? 0 : kSimTimeNever - 1);
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
  {
    std::lock_guard<std::mutex> lock(close_mu_);
    quiet_ = false;
  }
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    s->thread = std::thread([this, s] { ShardMain(*s); });
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

// Runs per lap of IdleWait's spin window: everything it touches is an
// atomic or a heap-top read (posted_count mirrors the posted vector so the
// spin never takes posted_mu).
bool ParallelCluster::HasWork(Shard& shard) {
  return router_->HasMail(shard.machine) ||
         shard.posted_count.load(std::memory_order_seq_cst) != 0 ||
         shard.queue.NextEventTime() <= lbts_->bound();
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
  SimTime arrival = send_ts + lookahead_;
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
  // First clock-sync point: the exporter needs at least one (virtual, real)
  // correspondence per shard to place this shard's events on the shared axis.
  tracer.RecordClockSync(shard.queue.Now(), FrSteadyClock(nullptr));
  const MachineId me = shard.machine;
  const ShardRouter::TimedSink sink = [this, &shard](MachineId src, SimTime send_ts,
                                                     PayloadRef payload) {
    ScheduleDelivery(shard, src, send_ts, std::move(payload));
  };
  const auto has_work = [this, &shard] {
    return HasWork(shard) || stop_.load(std::memory_order_relaxed);
  };
  while (!stop_.load(std::memory_order_acquire)) {
    // The round may run events up to the current window's bound.
    const SimTime bound = lbts_->bound();
    std::size_t did = sync_enabled_ ? router_->DrainTimed(me, kDrainBatch, sink)
                                    : router_->Drain(me, kDrainBatch);
    const std::size_t posted = DrainPosted(shard);
    did += posted;
    std::size_t steps = 0;
    while (steps < kEventBatch && shard.queue.StepIfAtMost(bound)) {
      ++steps;
    }
    did += steps;
    // End of the scheduling round: publish every destination lane this round
    // staged (one mailbox push per destination).  A did==0 round staged
    // nothing, so a blocked shard never sits on unpublished frames and its
    // floor is never published while frames sit staged.
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
    // Blocked: no mail, no posted work, and the next local event (if any) is
    // past the window.  The virtual clock is frozen until the shard wakes,
    // which makes this a clean clock-sync point for trace normalization.
    if (metrics != nullptr) {
      metrics->Set(GaugeId::kEventQueueDepth,
                   static_cast<std::int64_t>(shard.queue.PendingEvents()));
    }
    tracer.RecordClockSync(shard.queue.Now(), FrSteadyClock(nullptr));
    FoldPoolStats(metrics, pool_last);
    // Tight-consumer poll: a shard with a migration in flight holds every
    // window the closer opens to the link latency.
    const bool tight = sync_enabled_ && shard.kernel->NeedsTightTime();
    if (const std::uint64_t word = lbts_->Block(me, shard.queue.NextEventTime(), tight)) {
      Close(word);
    }
    do {
      router_->IdleWait(me, kIdlePark, has_work);
    } while (!has_work());
    lbts_->Wake();
  }
  FoldPoolStats(metrics, pool_last);
}

void ParallelCluster::Close(std::uint64_t word) {
  // consumed before sent (a frame is counted sent before it can be consumed)
  // and done before posted, so neither pair can read equal while work is out.
  // Unequal means some shard has mail or posted work and will wake.
  const std::uint64_t consumed = router_->consumed();
  const std::uint64_t sent = router_->sent();
  const std::uint64_t posted_done = posted_done_.load(std::memory_order_seq_cst);
  const std::uint64_t posted = posted_.load(std::memory_order_seq_cst);
  if (sent != consumed || posted != posted_done) {
    return;
  }
  const LbtsState::Round round = lbts_->Read(word);
  if (!lbts_->Confirm(round)) {
    return;
  }
  if (round.Drained()) {
    {
      std::lock_guard<std::mutex> lock(close_mu_);
      quiet_ = true;
      quiet_sent_ = sent;
      quiet_posted_ = posted;
    }
    quiet_cv_.notify_all();
    return;
  }
  bool widened = false;
  const SimTime next = lbts_->NextWindow(round, lookahead_, wide_span_, &widened);
  const std::uint64_t epoch = lbts_->OpenWindow(round.bound, next, widened);
  if (epoch == 0) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(close_mu_);
    if (metrics_) {
      MetricShard& slot = metrics_->shard(coordinator_slot());
      slot.Inc(CounterId::kLbtsWindows);
      if (widened) {
        slot.Inc(CounterId::kWideWindowsOpened);
      }
      slot.Set(GaugeId::kLbtsBoundUs, static_cast<std::int64_t>(next));
      slot.Observe(HistogramId::kLbtsWindowSpanUs, next - round.bound);
    }
    if (flight_) {
      flight_->recorder(coordinator_slot()).Record(FrEvent::kLbtsWindow, epoch, next);
    }
  }
  router_->WakeAll();
}

bool ParallelCluster::RunUntilQuiescent(std::chrono::milliseconds timeout) {
  // What the caller has injected so far: a declaration older than these
  // counts predates some of it.
  const std::uint64_t sent = router_->sent();
  const std::uint64_t posted = posted_.load(std::memory_order_seq_cst);
  Start();
  std::unique_lock<std::mutex> lock(close_mu_);
  return quiet_cv_.wait_for(lock, timeout, [&] {
    return quiet_ && quiet_sent_ >= sent && quiet_posted_ >= posted;
  });
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
  for (const EventRecord& ev : NormalizeShardClocks(merged.events(), merged.sync_points())) {
    normalized.RecordEvent(ev);
  }
  return normalized;
}

}  // namespace demos
