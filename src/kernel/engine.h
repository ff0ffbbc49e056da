// Engine: the common surface of the two execution engines.
//
// The repo grows the same DEMOS/MP kernel under two drivers: the
// deterministic Cluster (src/kernel/cluster.h, one virtual clock, byte-exact
// replay) and the parallel ParallelCluster (src/run/parallel_cluster.h, one
// thread + clock per kernel).  Every harness that only cares about *what the
// kernels did* -- the chaos runner, the invariant checker, the equivalence
// tests, metrics export -- programs against this interface and runs unchanged
// on either engine.
//
// The split of responsibilities:
//   - Pure virtuals cover what genuinely differs: how to run to a settled
//     state, how to inject work onto a machine, where the observability
//     backends live.
//   - Everything that is just "loop over the kernels" (stats aggregation,
//     observer attach, process location, snapshot assembly) is implemented
//     here once; the engines used to carry duplicate copies.
//
// Thread contract: every method on this interface is harness-side -- legal
// before the engine starts running, after RunUntilSettled() returns true, or
// (for the sequential engine) between events.  Use Execute()/ScheduleOn() to
// touch a kernel while a parallel engine is live.

#ifndef DEMOS_KERNEL_ENGINE_H_
#define DEMOS_KERNEL_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/base/ids.h"
#include "src/base/stats.h"
#include "src/kernel/kernel.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/event_queue.h"

namespace demos {

// The config core shared by ClusterConfig and ParallelClusterConfig.  Both
// keep their own flat fields (the repo's ~120 designated-initializer call
// sites spell `{.machines = 3}`, which aggregate inheritance would break) and
// expose them through EngineCore(); the construction helpers below consume
// this struct so the plumbing exists once.
struct EngineConfig {
  int machines = 2;
  KernelConfig kernel;
  bool trace_enabled = false;
  bool metrics_enabled = false;
  bool flight_recorder_enabled = false;
  std::size_t flight_capacity = 4096;
};

// Observability backends per the engines' shared slot convention:
// machines+1 slots, slot i owned by machine i's execution context, slot
// `machines` by the harness/coordinator thread.  Null members when disabled.
struct EngineObservability {
  std::unique_ptr<MetricsEngine> metrics;
  std::unique_ptr<FlightRecorderHub> flight;
};
EngineObservability MakeObservability(const EngineConfig& core);

// Machine `m`'s kernel config: the shared template with the per-machine seed
// skew both engines apply (identical staging => identical kernel state).
KernelConfig DeriveKernelConfig(const EngineConfig& core, int machine);

// Per-kernel wiring both engines repeat after constructing a kernel: tracer
// enable and flight-recorder attach for the kernel's slot.
void WireKernelObservability(const EngineConfig& core, Kernel& kernel,
                             FlightRecorderHub* flight, int slot);

struct SettleResult {
  // True when the engine reached a real settled state: the sequential engine
  // drained its event queue, the parallel engine passed a verified
  // quiescence check.  False means the events cap / wall-clock timeout hit.
  bool settled = false;
  // Events executed during this call (approximate under the parallel engine:
  // summed from per-shard counters, 0 when metrics are disabled).
  std::size_t events = 0;
};

class Engine {
 public:
  virtual ~Engine() = default;

  // ---- What the engines genuinely do differently. ----
  virtual Kernel& kernel(MachineId m) = 0;
  virtual int size() const = 0;

  // Drive the cluster until no work remains anywhere.  `max_events` is the
  // runaway bound for the sequential engine; the parallel engine bounds the
  // call by its configured wall-clock settle timeout instead.
  virtual SettleResult RunUntilSettled(std::size_t max_events = 2'000'000) = 0;

  // Schedule `fn` at virtual time `at` on machine `m`'s clock, running in
  // m's execution context.  The sequential engine has one clock and ignores
  // `m` for timing; the parallel engine uses shard m's private clock.
  virtual void ScheduleOn(MachineId m, SimTime at, std::function<void()> fn) = 0;

  // Run `fn` in machine `m`'s execution context as soon as possible: inline
  // for the sequential engine, posted to shard m's thread for the parallel
  // one (take effect by the next RunUntilSettled).
  virtual void Execute(MachineId m, std::function<void()> fn) = 0;

  // Observability backends; null when disabled by config.
  virtual MetricsEngine* metrics() const = 0;
  virtual FlightRecorderHub* flight_recorder() = 0;

  // ---- Shared surface, implemented once over kernel(m)/size(). ----
  const Kernel& kernel(MachineId m) const { return const_cast<Engine*>(this)->kernel(m); }

  // Attach a passive monitor to every kernel (null detaches).  The observer
  // must outlive the engine or be detached first.
  void SetObserver(KernelObserver* observer);

  // Aggregate kernel counters across the whole cluster.
  StatsRegistry TotalStats() const;
  std::int64_t TotalStat(const char* name) const;

  // Per-machine kernel StatsRegistry pointers, in machine order (feeds
  // BuildSnapshot / MetricsSampler::TakeSeries).
  std::vector<const StatsRegistry*> KernelStats() const;

  // One demos-metrics-v2 snapshot: engine metrics + kernel counters.  Engines
  // with more counted layers (the sequential reliable transport) override
  // and append their registries.
  virtual MetricsSnapshot BuildSnapshot() const;

  // Merge every layer's trace events into one time-sorted cluster timeline.
  // The default merges the kernel tracers; engines with more traced layers
  // (the sequential network/reliable stack) override and extend it.
  virtual Tracer TotalTrace() const;

  // Locate a process record anywhere in the cluster (test helper).
  ProcessRecord* FindProcessAnywhere(const ProcessId& pid);

  // Machine currently hosting a live copy of `pid`, or kNoMachine.
  MachineId HostOf(const ProcessId& pid);
};

}  // namespace demos

#endif  // DEMOS_KERNEL_ENGINE_H_
