// ParallelCluster: the parallel real-time execution engine.
//
// The deterministic Cluster (src/kernel/cluster.h) runs every kernel on one
// virtual clock -- perfect for byte-exact replay, useless for throughput.
// ParallelCluster gives each Kernel a *shard*: a dedicated worker thread, a
// private EventQueue (timers and dispatch quanta advance on the shard's own
// virtual clock), and a bounded lock-free MPSC mailbox fed by the ShardRouter
// transport.  This is the paper's actual topology -- one kernel per Z8000,
// communicating only by messages -- mapped onto cores.
//
// Ownership rules (what makes the hot path thread-correct with no locks):
//   - Every piece of kernel state (process table, link tables, pending
//     queues, forwarding addresses, stats, rng, tracer) is owned by its
//     shard and touched only from that shard's thread.
//   - Cross-shard effects travel exclusively as framed messages through the
//     ShardRouter; the handler runs on the *destination* shard's thread.
//   - The only shared-memory concurrency is PayloadRef refcounts (intrusive
//     atomics), the striped payload counters (one stripe per thread), and the
//     mailbox/close/LBTS machinery in src/run, whose per-message counts live
//     on per-shard lines.  A kernel's StatSlab is single-writer like the rest
//     of its state; readers from other threads (the metrics sampler, the
//     aggregate reads below) only load it.
//
// No thread coordinates the shards.  A shard with nothing to do blocks on
// the shared idle word, and the last shard to block closes the round itself
// (src/run/virtual_time.h): it opens the next LBTS window or declares
// quiescence, which RunUntilQuiescent waits for.
//
// Two time models, selected by ParallelClusterConfig::sync:
//   - Free-running (default): shard clocks advance independently; mail is
//     delivered the instant it is drained.  Fastest, and correct for every
//     workload whose semantics are timing-independent.
//   - Conservative sync: shard clocks advance only up to a cluster-wide
//     lookahead bound (src/run/virtual_time.h), and cross-shard frames are
//     delivered at send_ts + link latency on the receiver's clock.  No shard
//     ever receives a frame in its virtual past, which is what makes
//     wall-clock policies -- MigrationDeadlines, suspect backoff -- fire for
//     real reasons instead of clock skew.  Arming any migration deadline
//     auto-enables sync.
//
// Lifecycle: construct; stage the workload single-threaded (SpawnProcess,
// SendFromKernel -- sends are parked in mailboxes); Start(); then alternate
// RunUntilQuiescent() with Post() injections; Stop() joins.  Aggregate reads
// (TotalStats, HostOf, FindProcessAnywhere, TotalTrace) are only valid
// before Start or after a true RunUntilQuiescent/Stop.
//
// The same Kernel code runs the same 8-step Sec. 3.1 migration protocol and
// byte-identical wire format in both engines; the sequential-equivalence test
// in tests/parallel_cluster_test.cc holds both engines to the same final
// state through the shared Engine interface.

#ifndef DEMOS_RUN_PARALLEL_CLUSTER_H_
#define DEMOS_RUN_PARALLEL_CLUSTER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/base/stats.h"
#include "src/kernel/engine.h"
#include "src/kernel/kernel.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/run/shard_router.h"
#include "src/run/virtual_time.h"
#include "src/sim/event_queue.h"

namespace demos {

struct ParallelClusterConfig {
  int machines = 2;
  KernelConfig kernel;
  ShardRouterConfig router;
  // Per-kernel tracers (each written only by its shard thread).
  bool trace_enabled = false;
  // Shard-local metrics slabs + always-on flight recorder (src/obs).  Both
  // default on: the hot-path cost is relaxed adds and ring stores, and the
  // <5% throughput budget is enforced by bench_throughput --metrics=off.
  bool metrics_enabled = true;
  bool flight_recorder_enabled = true;
  // Flight-recorder ring capacity per shard (rounded up to a power of two).
  std::size_t flight_capacity = 4096;

  // Conservative virtual-time sync (see the file comment and
  // src/run/virtual_time.h).  `enabled` is forced on when any
  // kernel.migration_deadlines phase is armed -- deadlines are meaningless
  // against free-running clocks.
  struct TimeSyncConfig {
    bool enabled = false;
    // Virtual latency of every cross-shard link, and therefore the
    // cluster's lookahead L.  Clamped to >= 1us; larger values mean wider
    // windows (fewer sync rounds) but coarser delivery timing.
    SimDuration min_link_latency_us = 100;

    // ---- Wide windows (docs/PROTOCOL.md, "Wide windows"). ----
    // While no shard needs tight bounds (no migration in flight --
    // Kernel::NeedsTightTime), windows may open up to wide_window_spans x L
    // past the minimum floor.  0 disables widening entirely (every window is
    // strictly conservative).  When deadlines are armed the effective wide
    // span is additionally capped at a quarter of the shortest armed
    // deadline, so the one-window clock skew a wide era can leave behind
    // stays far below what a watchdog measures.  The default is sized for
    // the relaxed regime where skew is harmless -- each window barrier costs
    // real context switches, so span directly buys throughput; the
    // deadline/4 cap is what keeps tight-consumer runs honest.
    std::uint32_t wide_window_spans = 512;
  };
  TimeSyncConfig sync;
  // Wall-clock budget for RunUntilSettled (the Engine-interface entry point;
  // direct RunUntilQuiescent callers pass their own timeout).
  std::chrono::milliseconds settle_timeout{10000};

  void EnableTracing() { trace_enabled = true; }
  EngineConfig EngineCore() const {
    return EngineConfig{machines,        kernel,           trace_enabled,
                        metrics_enabled, flight_recorder_enabled, flight_capacity};
  }
};

class ParallelCluster final : public Engine {
 public:
  explicit ParallelCluster(ParallelClusterConfig config);
  ~ParallelCluster() override;

  ParallelCluster(const ParallelCluster&) = delete;
  ParallelCluster& operator=(const ParallelCluster&) = delete;

  // ---- Engine interface. ----
  Kernel& kernel(MachineId m) override { return *shards_[m]->kernel; }
  using Engine::kernel;
  int size() const override { return static_cast<int>(shards_.size()); }
  // Drives RunUntilQuiescent under config_.settle_timeout; `max_events` is
  // unused (the wall clock is the runaway bound here).  `events` is the
  // cluster-wide events_executed delta, 0 when metrics are disabled.
  SettleResult RunUntilSettled(std::size_t max_events = 2'000'000) override;
  // Pre-Start: schedules directly on shard m's private clock.  While
  // running: hops through Post() so the owning thread does the scheduling.
  void ScheduleOn(MachineId m, SimTime at, std::function<void()> fn) override;
  void Execute(MachineId m, std::function<void()> fn) override;
  MetricsEngine* metrics() const override { return metrics_.get(); }
  FlightRecorderHub* flight_recorder() override { return flight_.get(); }

  // The shard's private virtual clock (setup/inspection only).
  EventQueue& queue(MachineId m) { return shards_[m]->queue; }
  ShardRouter& router() { return *router_; }
  bool sync_enabled() const { return sync_enabled_; }
  // Close-protocol internals, exposed for tests.  In free-running mode the
  // one window covers all of virtual time.
  const LbtsState* lbts() const { return lbts_.get(); }

  // Launch the worker threads (idempotent).
  void Start();
  // Block until the cluster is quiescent: every shard blocked with a drained
  // queue, every mailbox empty, every posted closure done.  The last shard to
  // block declares it; this waits (once, up to `timeout`) for a declaration
  // that covers every Post and send made before the call.  Returns false on
  // timeout.  Threads stay parked afterwards, so Post() + another
  // RunUntilQuiescent() continues the run.
  bool RunUntilQuiescent(std::chrono::milliseconds timeout = std::chrono::milliseconds(10000));
  // Ask all workers to exit and join them (idempotent; Start() restarts).
  void Stop();

  // Run `fn` on shard `m`'s thread (the only legal way to poke a kernel
  // while the cluster is running).  Counted by the close protocol.
  void Post(MachineId m, std::function<void()> fn);

  // ---- Observability. ----
  // The engine/hub have machines+1 slots: slot i belongs to shard i, the
  // last is the window slot, written by whichever shard opens an LBTS window
  // (its counters, span histogram and lbts_window rows).
  int coordinator_slot() const { return static_cast<int>(shards_.size()); }
  // Refresh the mailbox/spill depth gauges from queue state; safe from any
  // thread (sampler collector), no-op when metrics are disabled.
  void RefreshDepthGauges();

  // TotalTrace with every shard's virtual timestamps normalized onto one
  // real-time axis via the recorded clock-sync points (see
  // NormalizeShardClocks in src/obs/trace_export.h); this is the variant to
  // export as a Chrome trace.  Meaningful for free-running shards; under
  // conservative sync the virtual clocks are already mutually consistent.
  Tracer TotalTraceNormalized() const;

 private:
  struct Shard {
    MachineId machine = kNoMachine;
    EventQueue queue;
    std::unique_ptr<Kernel> kernel;
    std::mutex posted_mu;
    std::vector<std::function<void()>> posted;
    // Mirror of posted.size() so the idle-spin predicate polls an atomic
    // instead of taking posted_mu per lap.  Incremented under the lock in
    // Post(); decremented after the swapped batch runs, so it may transiently
    // over-report (a spurious extra round) but never under-report.
    std::atomic<std::size_t> posted_count{0};
    std::thread thread;
  };

  void ShardMain(Shard& shard);
  // The park predicate: mail, posted work, or a runnable event in the window.
  bool HasWork(Shard& shard);
  // The close step of the shard whose block made `word` (virtual_time.h).
  void Close(std::uint64_t word);
  // Deferred delivery half of DrainTimed: schedule the frame's delivery at
  // send_ts + lookahead_ on the receiving shard's clock.
  void ScheduleDelivery(Shard& shard, MachineId src, SimTime send_ts, PayloadRef payload);
  std::size_t DrainPosted(Shard& shard);
  std::uint64_t TotalEventsExecuted() const;

  ParallelClusterConfig config_;
  std::unique_ptr<ShardRouter> router_;
  std::unique_ptr<MetricsEngine> metrics_;
  std::unique_ptr<FlightRecorderHub> flight_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<LbtsState> lbts_;
  // Conservative-sync state; unused in free-running mode.
  bool sync_enabled_ = false;
  // The link latency L in virtual us (>= 1): every frame's delivery delay
  // and the span of a tight window.
  SimDuration lookahead_ = 1;
  // Effective wide-window span in virtual us; at most lookahead_ means
  // widening is off.
  SimDuration wide_span_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> posted_{0};
  std::atomic<std::uint64_t> posted_done_{0};
  // The closing shards' bookkeeping: window-slot writes and the latest
  // quiescence declaration -- the sent and posted counts it verified (quiet_
  // is cleared by Start, so a declaration never outlives its run).
  std::mutex close_mu_;
  std::condition_variable quiet_cv_;
  bool quiet_ = false;
  std::uint64_t quiet_sent_ = 0;
  std::uint64_t quiet_posted_ = 0;
  bool started_ = false;
};

}  // namespace demos

#endif  // DEMOS_RUN_PARALLEL_CLUSTER_H_
