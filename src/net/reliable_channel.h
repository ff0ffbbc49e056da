// Reliable, ordered, exactly-once delivery over a lossy packet network.
//
// DEMOS/MP assumes "any message sent will eventually be delivered" from the
// published-communications layer of [Powell & Presotto 83].  That mechanism is
// not in this paper, so we substitute the closest conventional equivalent: a
// per-directed-pair sliding protocol with sequence numbers, cumulative
// acknowledgements, retransmission timers, duplicate suppression, and in-order
// release.  The kernel above sees exactly the guarantee the paper assumes.

#ifndef DEMOS_NET_RELIABLE_CHANNEL_H_
#define DEMOS_NET_RELIABLE_CHANNEL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>

#include "src/base/bytes.h"
#include "src/base/ids.h"
#include "src/base/stats.h"
#include "src/net/transport.h"
#include "src/obs/trace.h"
#include "src/sim/event_queue.h"

namespace demos {

struct ReliableConfig {
  SimDuration retransmit_timeout_us = 2000;
  // Exponential backoff multiplier applied per retry (x1000 fixed point).
  std::uint32_t backoff_permille = 1500;
  // Give up after this many retransmissions of one frame (0 = never).  Giving
  // up models a permanently dead peer; the frame is dropped and counted.
  std::uint32_t max_retries = 60;
};

// Wraps an unreliable Transport (typically a lossy SimNetwork) and presents a
// reliable Transport to the kernels.
class ReliableTransport final : public Transport {
 public:
  ReliableTransport(EventQueue* queue, Transport* lower, ReliableConfig config)
      : queue_(*queue), lower_(*lower), config_(config) {}

  void Attach(MachineId node, DeliveryHandler handler) override;
  void Send(MachineId src, MachineId dst, PayloadRef payload) override;

  // The channel's counters live only here; the engine's BuildSnapshot
  // exports them.
  const StatSlab& stats() const { return stats_; }
  // Its flight ring (tracer().set_ring) is optional.  The channel runs
  // single-threaded on one EventQueue, so one ring covers every machine pair;
  // the engine hands it the hub's harness slot.
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }

  // Invoked when a frame from `src` to `dst` exhausts max_retries and is
  // dropped.  The kernel layer uses this as its dead-peer signal.
  using GiveUpHandler = std::function<void(MachineId src, MachineId dst, std::uint64_t seq)>;
  void set_on_give_up(GiveUpHandler handler) { on_give_up_ = std::move(handler); }

 private:
  struct PairKey {
    MachineId a;
    MachineId b;
    friend bool operator==(const PairKey&, const PairKey&) = default;
  };
  struct PairKeyHash {
    std::size_t operator()(const PairKey& k) const {
      return (static_cast<std::size_t>(k.a) << 16) | k.b;
    }
  };

  struct SenderState {
    std::uint64_t next_seq = 0;
    // seq -> serialized frame, shared with the wire copy in flight.  If a
    // downstream owner patches its view of the frame (forwarding), the
    // copy-on-write in PayloadRef keeps this retransmit buffer intact.
    std::map<std::uint64_t, PayloadRef> unacked;
  };

  struct ReceiverState {
    std::uint64_t next_expected = 0;
    std::map<std::uint64_t, PayloadRef> out_of_order;  // seq -> payload
  };

  void OnLowerDelivery(MachineId dst, MachineId src, PayloadRef frame);
  void ScheduleRetransmit(MachineId src, MachineId dst, std::uint64_t seq, std::uint32_t attempt,
                          SimDuration timeout);
  static PayloadRef EncodeData(std::uint64_t seq, const PayloadRef& payload);
  static PayloadRef EncodeAck(std::uint64_t cumulative);
  // Catalog event (src/obs/events.h) about frame `seq` on the src->dst link.
  template <FrEvent E>
  void Emit(MachineId src, MachineId dst, std::uint64_t seq) {
    EmitEvent<E>(tracer_, queue_.Now(), src, 0, ProcessId{}, dst, seq);
  }

  EventQueue& queue_;
  Transport& lower_;
  ReliableConfig config_;
  std::unordered_map<MachineId, DeliveryHandler> handlers_;
  std::unordered_map<PairKey, SenderState, PairKeyHash> senders_;
  std::unordered_map<PairKey, ReceiverState, PairKeyHash> receivers_;
  StatSlab stats_;
  Tracer tracer_;
  GiveUpHandler on_give_up_;
};

}  // namespace demos

#endif  // DEMOS_NET_RELIABLE_CHANNEL_H_
