// Cluster: the deterministic sequential execution engine.
//
// Wires up one EventQueue, a SimNetwork (optionally wrapped in
// ReliableTransport), and one Kernel per machine; every test, bench, and
// example builds its DEMOS/MP "network of processors" through this class.
// It implements the Engine interface (src/kernel/engine.h) shared with the
// parallel ParallelCluster, so engine-agnostic harnesses (chaos, invariant
// checker, equivalence tests) run on either.

#ifndef DEMOS_KERNEL_CLUSTER_H_
#define DEMOS_KERNEL_CLUSTER_H_

#include <cassert>
#include <memory>
#include <utility>
#include <vector>

#include "src/base/stats.h"
#include "src/kernel/engine.h"
#include "src/kernel/kernel.h"
#include "src/net/reliable_channel.h"
#include "src/net/sim_network.h"
#include "src/sim/event_queue.h"

namespace demos {

struct ClusterConfig {
  int machines = 2;
  SimNetworkConfig network;
  KernelConfig kernel;
  // Interpose the seq/ack/retransmit layer (needed whenever the network drops,
  // duplicates, or reorders packets).
  bool reliable_layer = false;
  ReliableConfig reliable;

  // Single authoritative tracing switch.  The per-layer tracers (kernels,
  // network, and the reliable channel if present) have no config flags of
  // their own; Cluster enables each one from this setting.
  bool trace_enabled = false;
  // Metrics slabs + flight recorder (src/obs), per the engines' shared
  // machines+1 slot convention (slot `machines` = harness: the shared event
  // queue and the reliable channel).  Off by default here -- the sequential
  // engine predates them and most deterministic tests never look -- but any
  // Engine-generic harness can flip them on for either engine.
  bool metrics_enabled = false;
  bool flight_recorder_enabled = false;
  std::size_t flight_capacity = 4096;

  void EnableTracing() { trace_enabled = true; }
  EngineConfig EngineCore() const {
    return EngineConfig{machines,        kernel,           trace_enabled,
                        metrics_enabled, flight_recorder_enabled, flight_capacity};
  }
};

class Cluster final : public Engine {
 public:
  explicit Cluster(ClusterConfig config) : config_(config) {
    const EngineConfig core = config.EngineCore();
    EngineObservability obs = MakeObservability(core);
    metrics_ = std::move(obs.metrics);
    flight_ = std::move(obs.flight);
    if (flight_) {
      // Deterministic runs get deterministic dumps: stamp records with the
      // shared virtual clock (ns by convention).
      flight_->SetClockAll(
          [](void* ctx) { return static_cast<EventQueue*>(ctx)->Now() * 1000; }, &queue_);
    }
    if (metrics_) {
      queue_.SetMetrics(&metrics_->shard(config.machines));
    }
    network_ = std::make_unique<SimNetwork>(&queue_, config.network);
    Transport* transport = network_.get();
    if (config.trace_enabled) {
      network_->tracer().Enable();
    }
    if (config.reliable_layer) {
      reliable_ = std::make_unique<ReliableTransport>(&queue_, network_.get(), config.reliable);
      transport = reliable_.get();
      if (config.trace_enabled) {
        reliable_->tracer().Enable();
      }
      reliable_->tracer().set_ring(flight_ ? &flight_->recorder(config.machines) : nullptr);
    }
    kernels_.reserve(static_cast<std::size_t>(config.machines));
    for (int i = 0; i < config.machines; ++i) {
      kernels_.push_back(std::make_unique<Kernel>(static_cast<MachineId>(i), &queue_, transport,
                                                  DeriveKernelConfig(core, i)));
      WireKernelObservability(core, *kernels_.back(), flight_.get(), i);
    }
    if (reliable_) {
      // Give-ups are the transport's dead-peer verdict; feed each one into
      // the sending kernel's suspect list so policy stops re-offering
      // migrations to the silent machine.
      reliable_->set_on_give_up([this](MachineId src, MachineId dst, std::uint64_t) {
        if (static_cast<std::size_t>(src) < kernels_.size()) {
          kernels_[src]->addressing().OnPeerGiveUp(dst);
        }
      });
    }
  }

  EventQueue& queue() { return queue_; }
  SimNetwork& network() { return *network_; }
  ReliableTransport* reliable() { return reliable_.get(); }

  // ---- Engine interface. ----
  Kernel& kernel(MachineId m) override {
    assert(m < kernels_.size());
    return *kernels_[m];
  }
  using Engine::kernel;

  int size() const override { return static_cast<int>(kernels_.size()); }

  SettleResult RunUntilSettled(std::size_t max_events = 2'000'000) override {
    SettleResult out;
    out.events = queue_.RunUntilIdle(max_events);
    out.settled = queue_.Empty();
    return out;
  }

  // One shared clock: `m` only selects the execution context, which is the
  // same (the caller's) for every machine here.
  void ScheduleOn(MachineId /*m*/, SimTime at, std::function<void()> fn) override {
    queue_.At(at, std::move(fn));
  }
  void Execute(MachineId /*m*/, std::function<void()> fn) override { fn(); }

  MetricsEngine* metrics() const override { return metrics_.get(); }
  FlightRecorderHub* flight_recorder() override { return flight_.get(); }

  std::size_t RunUntilIdle(std::size_t max_events = 2'000'000) {
    return queue_.RunUntilIdle(max_events);
  }
  std::size_t RunFor(SimDuration duration) { return queue_.RunFor(duration); }

  // The reliable transport's rel_* counters follow the kernels' slabs; they
  // are counted nowhere else.
  MetricsSnapshot BuildSnapshot() const override {
    std::vector<const StatSlab*> stats = KernelStats();
    if (reliable_) {
      stats.push_back(&reliable_->stats());
    }
    return demos::BuildSnapshot(metrics(), stats);
  }

  // Extends the kernel-tracer merge with the layers only this engine has.
  Tracer TotalTrace() const override {
    Tracer total = Engine::TotalTrace();
    total.Merge(network_->tracer());
    if (reliable_) {
      total.Merge(reliable_->tracer());
    }
    total.SortByTime();
    return total;
  }

 private:
  ClusterConfig config_;
  EventQueue queue_;
  std::unique_ptr<MetricsEngine> metrics_;
  std::unique_ptr<FlightRecorderHub> flight_;
  std::unique_ptr<SimNetwork> network_;
  std::unique_ptr<ReliableTransport> reliable_;
  std::vector<std::unique_ptr<Kernel>> kernels_;
};

}  // namespace demos

#endif  // DEMOS_KERNEL_CLUSTER_H_
