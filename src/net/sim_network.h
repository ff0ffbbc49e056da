// Simulated inter-machine network.
//
// Models the Z8000 network of the original system as a point-to-point packet
// network with per-packet propagation latency, per-node output-port
// serialization (bandwidth), optional jitter, and fault injection (loss and
// duplication).  With the default configuration (no loss, no jitter) delivery
// is in-order and exactly-once, matching the guarantee the DEMOS/MP kernel
// assumes from its low-level communication layer; fault-injection tests wrap
// this class in ReliableTransport instead.

#ifndef DEMOS_NET_SIM_NETWORK_H_
#define DEMOS_NET_SIM_NETWORK_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/ids.h"
#include "src/base/rng.h"
#include "src/base/stats.h"
#include "src/net/transport.h"
#include "src/obs/trace.h"
#include "src/sim/event_queue.h"

namespace demos {

struct SimNetworkConfig {
  // One-way propagation delay between any two distinct machines.
  SimDuration propagation_us = 100;
  // Output-port bandwidth in bytes per microsecond (10 B/us = 80 Mbit/s).
  double bandwidth_bytes_per_us = 10.0;
  // Uniform extra delay in [0, jitter_us].  Non-zero jitter can reorder
  // packets, which only ReliableTransport-wrapped traffic tolerates.
  SimDuration jitter_us = 0;
  // Fault injection.
  double drop_probability = 0.0;
  double duplicate_probability = 0.0;
  // Fixed per-packet overhead added to the payload when computing
  // serialization time (frame header, etc.).
  std::size_t frame_overhead_bytes = 8;
  std::uint64_t seed = 0x0DE305;
};

class SimNetwork final : public Transport {
 public:
  SimNetwork(EventQueue* queue, SimNetworkConfig config)
      : queue_(*queue), config_(config), rng_(config.seed) {}

  // Machines are attached before they send or are partitioned: attaching
  // machine n makes room for every id up to n.
  void Attach(MachineId node, DeliveryHandler handler) override {
    if (node >= machines_.size()) {
      machines_.resize(node + 1);
    }
    machines_[node].handler = std::move(handler);
  }

  void Send(MachineId src, MachineId dst, PayloadRef payload) override;

  // Partition control: while a machine is "down", packets to and from it are
  // silently dropped (used by the fault-injection suite).
  void SetNodeUp(MachineId node, bool up) {
    assert(node < machines_.size());
    machines_[node].down = !up;
  }
  bool IsNodeUp(MachineId node) const { return node >= machines_.size() || !machines_[node].down; }

  const StatSlab& stats() const { return stats_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }

 private:
  void Deliver(MachineId src, MachineId dst, PayloadRef payload, SimDuration delay);
  SimDuration TransmitDelay(std::size_t payload_size, MachineId src);
  // Catalog event (src/obs/events.h) on the transmitting machine's track.
  template <FrEvent E>
  void Emit(MachineId src, MachineId dst) {
    EmitEvent<E>(tracer_, queue_.Now(), src, 0, ProcessId{}, src, dst);
  }

  EventQueue& queue_;
  SimNetworkConfig config_;
  Rng rng_;
  struct Machine {
    DeliveryHandler handler;
    bool down = false;
    // Earliest time the output port is free (serialization model).
    SimTime port_free_at = 0;
  };
  std::vector<Machine> machines_;  // indexed by MachineId (machine ids are dense)
  StatSlab stats_;
  Tracer tracer_;
};

}  // namespace demos

#endif  // DEMOS_NET_SIM_NETWORK_H_
