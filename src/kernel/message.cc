#include "src/kernel/message.h"

#include <cstring>

namespace demos {

const char* MsgTypeName(MsgType t) {
  switch (t) {
    case MsgType::kInvalid:
      return "INVALID";
    case MsgType::kMigrateRequest:
      return "MIGRATE_REQUEST";
    case MsgType::kMigrateOffer:
      return "MIGRATE_OFFER";
    case MsgType::kMigrateAccept:
      return "MIGRATE_ACCEPT";
    case MsgType::kMigrateReject:
      return "MIGRATE_REJECT";
    case MsgType::kMoveDataReq:
      return "MOVE_DATA_REQ";
    case MsgType::kTransferComplete:
      return "TRANSFER_COMPLETE";
    case MsgType::kCleanupDone:
      return "CLEANUP_DONE";
    case MsgType::kMigrateDone:
      return "MIGRATE_DONE";
    case MsgType::kMigrateCancel:
      return "MIGRATE_CANCEL";
    case MsgType::kMoveDataPacket:
      return "MOVE_DATA_PACKET";
    case MsgType::kMoveDataAck:
      return "MOVE_DATA_ACK";
    case MsgType::kReadDataArea:
      return "READ_DATA_AREA";
    case MsgType::kWriteDataArea:
      return "WRITE_DATA_AREA";
    case MsgType::kDataMoveDone:
      return "DATA_MOVE_DONE";
    case MsgType::kLinkUpdate:
      return "LINK_UPDATE";
    case MsgType::kNotDeliverable:
      return "NOT_DELIVERABLE";
    case MsgType::kLocateReq:
      return "LOCATE_REQ";
    case MsgType::kLocateResp:
      return "LOCATE_RESP";
    case MsgType::kLocationRegister:
      return "LOCATION_REGISTER";
    case MsgType::kForwardingClear:
      return "FORWARDING_CLEAR";
    case MsgType::kChainCollapse:
      return "CHAIN_COLLAPSE";
    case MsgType::kLinkUpdateAck:
      return "LINK_UPDATE_ACK";
    case MsgType::kGossip:
      return "GOSSIP";
    case MsgType::kSuspendProcess:
      return "SUSPEND_PROCESS";
    case MsgType::kResumeProcess:
      return "RESUME_PROCESS";
    case MsgType::kKillProcess:
      return "KILL_PROCESS";
    case MsgType::kCreateProcess:
      return "CREATE_PROCESS";
    case MsgType::kCreateProcessReply:
      return "CREATE_PROCESS_REPLY";
    case MsgType::kTimerFired:
      return "TIMER_FIRED";
    case MsgType::kProcessExited:
      return "PROCESS_EXITED";
    case MsgType::kLoadReport:
      return "LOAD_REPORT";
    default:
      return t >= MsgType::kUserBase ? "USER" : "UNKNOWN";
  }
}

namespace {

// Fixed byte offsets of the mutable header fields within a wire frame.  Only
// the hop-mutable fields (receiver machine, hop count, via path, trace id)
// change between forwarding hops, so a reused frame is patched at these
// offsets instead of being re-encoded.
constexpr std::size_t kOffReceiverMachine = 8;
constexpr std::size_t kOffReceiverPid = 10;
constexpr std::size_t kOffFlags = 16;
constexpr std::size_t kOffType = 17;
constexpr std::size_t kOffHopCount = 19;
constexpr std::size_t kOffTraceId = 20;
constexpr std::size_t kOffViaCount = 28;
constexpr std::size_t kOffVia = 29;  // Message::kMaxViaSlots x u16
constexpr std::size_t kOffLinkCount = kOffVia + Message::kMaxViaSlots * 2;
constexpr std::size_t kOffLinks = kOffLinkCount + 1;

void StoreAddress(std::uint8_t* p, const ProcessAddress& a) {
  StoreLE<std::uint16_t>(p, a.last_known_machine);
  StoreLE<std::uint16_t>(p + 2, a.pid.creating_machine);
  StoreLE<std::uint32_t>(p + 4, a.pid.local_id);
}

}  // namespace

Bytes Message::Serialize() const {
  // Stored at the same fixed offsets Deserialize reads, into a pooled buffer
  // of exactly WireSize() bytes.  Links are laid out as Link::Serialize
  // writes them.
  const std::size_t payload_off = kOffLinks + carried_links.size() * kLinkWireSize + 4;
  Bytes out = PayloadBufferPool::AcquireBytes(payload_off + payload.size());
  out.resize(payload_off + payload.size());
  std::uint8_t* base = out.data();
  StoreAddress(base, sender);
  StoreAddress(base + kOffReceiverMachine, receiver);
  base[kOffFlags] = flags;
  StoreLE<std::uint16_t>(base + kOffType, static_cast<std::uint16_t>(type));
  base[kOffHopCount] = hop_count;
  StoreLE<std::uint64_t>(base + kOffTraceId, trace_id);
  base[kOffViaCount] = via_count;
  for (std::size_t i = 0; i < kMaxViaSlots; ++i) {
    StoreLE<std::uint16_t>(base + kOffVia + i * 2, via[i]);
  }
  base[kOffLinkCount] = static_cast<std::uint8_t>(carried_links.size());
  std::uint8_t* p = base + kOffLinks;
  for (const Link& link : carried_links) {
    StoreAddress(p, link.address);
    p[8] = link.flags;
    StoreLE<std::uint32_t>(p + 9, link.data_offset);
    StoreLE<std::uint32_t>(p + 13, link.data_length);
    p += kLinkWireSize;
  }
  StoreLE<std::uint32_t>(p, static_cast<std::uint32_t>(payload.size()));
  if (!payload.empty()) {
    std::memcpy(base + payload_off, payload.data(), payload.size());
  }
  return out;
}

bool Message::FrameReusable() const {
  // Everything except receiver machine, hop count, and trace id must still
  // match the cached frame byte-for-byte, and the payload must still alias it
  // at the recorded offset; otherwise the frame is stale.
  if (wire_.size() < kOffLinks || wire_.size() != payload_off_ + payload.size()) {
    return false;
  }
  const std::uint8_t* base = wire_.data();
  if (LoadLE<std::uint16_t>(base + 0) != sender.last_known_machine ||
      LoadLE<std::uint16_t>(base + 2) != sender.pid.creating_machine ||
      LoadLE<std::uint32_t>(base + 4) != sender.pid.local_id ||
      LoadLE<std::uint16_t>(base + kOffReceiverPid) != receiver.pid.creating_machine ||
      LoadLE<std::uint32_t>(base + kOffReceiverPid + 2) != receiver.pid.local_id ||
      base[kOffFlags] != flags ||
      LoadLE<std::uint16_t>(base + kOffType) != static_cast<std::uint16_t>(type) ||
      base[kOffLinkCount] != carried_links.size()) {
    return false;
  }
  if (payload_off_ < kOffLinks + carried_links.size() * kLinkWireSize + 4 ||
      (!payload.empty() && payload.data() != base + payload_off_)) {
    return false;
  }
  if (LoadLE<std::uint32_t>(base + payload_off_ - 4) != payload.size()) {
    return false;
  }
  ByteReader links(base + kOffLinks, carried_links.size() * kLinkWireSize);
  for (const Link& link : carried_links) {
    if (!(Link::Deserialize(links) == link)) {
      return false;
    }
  }
  return links.ok();
}

void Message::Reframe() {
  if (wire_.empty() || !FrameReusable()) {
    wire_ = PayloadRef(Serialize());
    payload_off_ = wire_.size() - payload.size();
    payload = PayloadRef{};
  } else if (payload.SharesBufferWith(wire_)) {
    // The payload window is this message's own alias of the frame; release it
    // so it does not look like a foreign owner to the COW check below.
    payload = PayloadRef{};
  }
  // Patch the hop-mutable fields in place.  MutableData() copies first if the
  // frame is still aliased elsewhere (e.g. a reliable-layer retransmit
  // buffer), so prior owners keep seeing the bytes they captured.
  std::uint8_t* base = wire_.MutableData();
  StoreLE<std::uint16_t>(base + kOffReceiverMachine, receiver.last_known_machine);
  base[kOffHopCount] = hop_count;
  StoreLE<std::uint64_t>(base + kOffTraceId, trace_id);
  base[kOffViaCount] = via_count;
  for (std::size_t i = 0; i < kMaxViaSlots; ++i) {
    StoreLE<std::uint16_t>(base + kOffVia + i * 2, via[i]);
  }
}

PayloadRef Message::Frame() & {
  Reframe();
  payload = wire_.Slice(payload_off_, wire_.size() - payload_off_);
  return wire_;
}

PayloadRef Message::Frame() && {
  Reframe();
  return std::move(wire_);
}

Result<Message> Message::Deserialize(PayloadRef wire) {
  const std::size_t size = wire.size();
  const std::uint8_t* base = wire.data();
  const auto truncated = [size] {
    return InvalidArgumentError("truncated message frame (" + std::to_string(size) + " bytes)");
  };
  // Section 1: the fixed header.
  if (size < kOffLinks) {
    return truncated();
  }
  // Section 2: the carried links and the payload length prefix.
  const std::uint8_t n_links = base[kOffLinkCount];
  const std::size_t links_len = n_links * kLinkWireSize;
  const std::size_t payload_off = kOffLinks + links_len + 4;
  if (size < payload_off) {
    return truncated();
  }
  // Section 3: the payload.
  const std::uint32_t payload_len = LoadLE<std::uint32_t>(base + payload_off - 4);
  if (size - payload_off < payload_len) {
    return truncated();
  }
  // Decode straight into the returned Result (named return value), so the
  // message is never moved on its way out.
  Result<Message> out{std::in_place};
  Message& m = *out;
  m.sender.last_known_machine = LoadLE<std::uint16_t>(base + 0);
  m.sender.pid.creating_machine = LoadLE<std::uint16_t>(base + 2);
  m.sender.pid.local_id = LoadLE<std::uint32_t>(base + 4);
  m.receiver.last_known_machine = LoadLE<std::uint16_t>(base + kOffReceiverMachine);
  m.receiver.pid.creating_machine = LoadLE<std::uint16_t>(base + kOffReceiverPid);
  m.receiver.pid.local_id = LoadLE<std::uint32_t>(base + kOffReceiverPid + 2);
  m.flags = base[kOffFlags];
  m.type = static_cast<MsgType>(LoadLE<std::uint16_t>(base + kOffType));
  m.hop_count = base[kOffHopCount];
  m.trace_id = LoadLE<std::uint64_t>(base + kOffTraceId);
  m.via_count = base[kOffViaCount];
  for (std::size_t i = 0; i < kMaxViaSlots; ++i) {
    m.via[i] = LoadLE<std::uint16_t>(base + kOffVia + i * 2);
  }
  ByteReader links(base + kOffLinks, links_len);
  for (std::uint8_t i = 0; i < n_links; ++i) {
    m.carried_links.push_back(Link::Deserialize(links));
  }
  m.payload_off_ = payload_off;
  m.wire_ = std::move(wire);
  m.payload = m.wire_.Slice(payload_off, payload_len);
  return out;
}

std::size_t Message::WireHeaderSize() {
  // sender(8) + receiver(8) + flags(1) + type(2) + hops(1) + trace id(8) +
  // via count(1) + via slots(4x2) + nlinks(1) + payload length prefix(4).
  return 8 + 8 + 1 + 2 + 1 + 8 + 1 + kMaxViaSlots * 2 + 1 + 4;
}

std::string Message::ToString() const {
  return std::string(MsgTypeName(type)) + " " + sender.ToString() + "->" + receiver.ToString() +
         " (" + std::to_string(payload.size()) + "B, " +
         std::to_string(carried_links.size()) + " links)";
}

}  // namespace demos
