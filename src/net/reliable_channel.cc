#include "src/net/reliable_channel.h"

#include <utility>

#include "src/base/log.h"

namespace demos {
namespace {
constexpr std::uint8_t kFrameData = 0;
constexpr std::uint8_t kFrameAck = 1;
}  // namespace

void ReliableTransport::Attach(MachineId node, DeliveryHandler handler) {
  handlers_[node] = std::move(handler);
  lower_.Attach(node, [this, node](MachineId src, PayloadRef frame) {
    OnLowerDelivery(node, src, std::move(frame));
  });
}

PayloadRef ReliableTransport::EncodeData(std::uint64_t seq, const PayloadRef& payload) {
  ByteWriter w;
  w.U8(kFrameData);
  w.U64(seq);
  w.BlobRef(payload);
  return PayloadRef(w.Take());
}

PayloadRef ReliableTransport::EncodeAck(std::uint64_t cumulative) {
  ByteWriter w;
  w.U8(kFrameAck);
  w.U64(cumulative);
  return PayloadRef(w.Take());
}

void ReliableTransport::Send(MachineId src, MachineId dst, PayloadRef payload) {
  SenderState& sender = senders_[PairKey{src, dst}];
  const std::uint64_t seq = sender.next_seq++;
  PayloadRef frame = EncodeData(seq, payload);
  sender.unacked[seq] = frame;  // shares the buffer with the wire copy
  lower_.Send(src, dst, std::move(frame));
  ScheduleRetransmit(src, dst, seq, /*attempt=*/1, config_.retransmit_timeout_us);
}

void ReliableTransport::ScheduleRetransmit(MachineId src, MachineId dst, std::uint64_t seq,
                                           std::uint32_t attempt, SimDuration timeout) {
  queue_.After(timeout, [this, src, dst, seq, attempt, timeout]() {
    auto sit = senders_.find(PairKey{src, dst});
    if (sit == senders_.end()) {
      return;
    }
    auto uit = sit->second.unacked.find(seq);
    if (uit == sit->second.unacked.end()) {
      return;  // acknowledged in the meantime
    }
    if (config_.max_retries != 0 && attempt > config_.max_retries) {
      DEMOS_LOG(kWarn, "rel") << "giving up on frame m" << src << "->m" << dst << " seq " << seq;
      stats_.Add(StatId::kRelGiveUps);
      stats_.AddNamed("rel_give_ups_m" + std::to_string(src) + "_to_m" + std::to_string(dst));
      TraceFrame(trace::kGiveUp, src, seq, attempt);
      if (flight_ != nullptr) {
        flight_->Record(FrEvent::kGiveUp, dst, seq);
      }
      sit->second.unacked.erase(uit);
      if (on_give_up_) {
        on_give_up_(src, dst, seq);
      }
      return;
    }
    stats_.Add(StatId::kRelRetransmits);
    TraceFrame(trace::kRetransmit, src, seq, attempt);
    if (flight_ != nullptr) {
      flight_->Record(FrEvent::kRetransmit, dst, seq);
    }
    lower_.Send(src, dst, uit->second);
    SimDuration next = timeout * config_.backoff_permille / 1000;
    ScheduleRetransmit(src, dst, seq, attempt + 1, next);
  });
}

void ReliableTransport::OnLowerDelivery(MachineId dst, MachineId src, PayloadRef frame) {
  ByteReader r(frame);
  const std::uint8_t type = r.U8();

  if (type == kFrameAck) {
    const std::uint64_t cumulative = r.U64();
    SenderState& sender = senders_[PairKey{dst, src}];
    // Cumulative ack: everything below `cumulative` is delivered.
    sender.unacked.erase(sender.unacked.begin(), sender.unacked.lower_bound(cumulative));
    return;
  }

  const std::uint64_t seq = r.U64();
  PayloadRef payload = r.BlobRef();  // aliases the frame: no copy on receive
  if (!r.ok()) {
    DEMOS_LOG(kError, "rel") << "malformed frame from m" << src;
    return;
  }

  ReceiverState& recv = receivers_[PairKey{src, dst}];
  if (seq < recv.next_expected) {
    stats_.Add(StatId::kRelDuplicatesDropped);
  } else if (seq == recv.next_expected) {
    recv.next_expected++;
    auto hit = handlers_.find(dst);
    if (hit != handlers_.end()) {
      hit->second(src, std::move(payload));
    }
    // Release any buffered in-order continuation.
    auto it = recv.out_of_order.begin();
    while (it != recv.out_of_order.end() && it->first == recv.next_expected) {
      recv.next_expected++;
      if (hit != handlers_.end()) {
        hit->second(src, std::move(it->second));
      }
      it = recv.out_of_order.erase(it);
    }
  } else {
    // Out of order: buffer unless duplicate.
    if (!recv.out_of_order.emplace(seq, std::move(payload)).second) {
      stats_.Add(StatId::kRelDuplicatesDropped);
    }
  }

  stats_.Add(StatId::kRelAcksSent);
  lower_.Send(dst, src, EncodeAck(recv.next_expected));
}

}  // namespace demos
