// Messages: the universal interaction mechanism of DEMOS/MP (Sec. 2.1).
//
// Everything in this system -- user traffic, file I/O, process control,
// migration orchestration, link updates -- is a Message.  Kernels have a
// pseudo-process identity (local id 0 on their machine) so that "messages may
// be sent to or by a kernel in the same manner as a process".
//
// A message is routed to receiver.last_known_machine; the kernel there either
// delivers it, holds it (target in migration), forwards it (forwarding
// address), or bounces it (return-to-sender baseline of Sec. 4).

#ifndef DEMOS_KERNEL_MESSAGE_H_
#define DEMOS_KERNEL_MESSAGE_H_

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "src/base/bytes.h"
#include "src/base/ids.h"
#include "src/base/status.h"
#include "src/kernel/link.h"

namespace demos {

// Message type codes.  Values below kUserBase belong to the kernel protocol;
// programs use kUserBase and above.
enum class MsgType : std::uint16_t {
  kInvalid = 0,

  // ---- Migration protocol (Sec. 3.1).  These are the paper's 9
  // "administrative" messages; see MigrationAdminMessages() below. ----
  kMigrateRequest = 1,    // process mgr -> victim (DELIVERTOKERNEL): move to payload machine
  kMigrateOffer = 2,      // source kernel -> destination kernel: sizes and locations
  kMigrateAccept = 3,     // destination -> source: process state allocated, start pulls
  kMigrateReject = 4,     // destination -> source: refused (Sec. 3.2 autonomy)
  kMoveDataReq = 5,       // destination -> source: pull one section (x3)
  kTransferComplete = 6,  // destination -> source: all sections received
  kCleanupDone = 7,       // source -> destination: pending queue forwarded, fwd addr installed
  kMigrateDone = 8,       // source -> requester: migration finished (status in payload)
  kMigrateCancel = 9,     // source -> destination: watchdog abort, discard the partial image
                          // (failure path only; a successful migration stays at 9 messages)

  // ---- Bulk data movement (Sec. 2.2 / 6). ----
  kMoveDataPacket = 16,  // one chunk of a streamed transfer
  kMoveDataAck = 17,     // per-packet acknowledgement (receiver does not gate the stream)
  kReadDataArea = 18,    // DELIVERTOKERNEL: stream a window of the target's data segment back
  kWriteDataArea = 19,   // DELIVERTOKERNEL: announce an incoming stream into the data area
  kDataMoveDone = 20,    // kernel -> instigating process: transfer complete (payload for reads)

  // ---- Forwarding machinery (Sec. 4, 5). ----
  kLinkUpdate = 32,      // forwarder -> sender (DELIVERTOKERNEL): patch links to migrated pid
  kNotDeliverable = 33,  // return-to-sender bounce (alternative scheme of Sec. 4)
  kLocateReq = 34,       // baseline: ask home kernel where pid lives now
  kLocateResp = 35,
  kLocationRegister = 36,  // baseline: destination registers new location at home kernel
  kForwardingClear = 37,   // GC extension: drop the forwarding address for a dead pid
  kChainCollapse = 38,     // owner -> intermediate hops: re-point forwarding straight at me
  kLinkUpdateAck = 39,     // link-update receiver -> forwarder: peer retired, record may GC
  kGossip = 40,            // kernel -> kernel: epidemic (pid, machine, version) triples

  // ---- Process control (DELIVERTOKERNEL, Sec. 2.2). ----
  kSuspendProcess = 48,
  kResumeProcess = 49,
  kKillProcess = 50,

  // ---- Kernel services. ----
  kCreateProcess = 64,       // ask a kernel to create a process
  kCreateProcessReply = 65,  // reply: carries a link to the new process
  kTimerFired = 66,          // kernel -> process itself
  kProcessExited = 67,       // kernel -> interested party (creator)
  kLoadReport = 68,          // kernel -> process manager: periodic load metrics

  kUserBase = 1000,
};

// Program protocols (src/sys) define their codes as MsgType values above
// kUserBase, which are not enumerators; their handlers switch on the code,
// `switch (TypeCode(msg.type)) { case TypeCode(kSbLookup): ... }`, so
// -Wswitch does not flag every label as outside the enumeration.
constexpr std::uint16_t TypeCode(MsgType type) { return static_cast<std::uint16_t>(type); }

inline bool IsMigrationAdminType(MsgType t) {
  switch (t) {
    case MsgType::kMigrateRequest:
    case MsgType::kMigrateOffer:
    case MsgType::kMigrateAccept:
    case MsgType::kMigrateReject:
    case MsgType::kMoveDataReq:
    case MsgType::kTransferComplete:
    case MsgType::kCleanupDone:
    case MsgType::kMigrateDone:
    case MsgType::kMigrateCancel:
      return true;
    default:
      return false;
  }
}

const char* MsgTypeName(MsgType t);

// The links one message carries (Sec. 2.4).  Nearly every message carries
// none, one (a reply link) or two, so up to kInline live inside the message
// and decoding a frame allocates nothing; more spill to the heap.  Reads like
// a std::vector<Link>.
class CarriedLinks {
 public:
  static constexpr std::uint32_t kInline = 2;

  CarriedLinks() = default;
  CarriedLinks(std::initializer_list<Link> links) { Append(links.begin(), links.size()); }
  // Implicit so that a caller holding its links in a std::vector (the
  // perfbench driver's SendFromKernel) passes them unchanged.
  CarriedLinks(const std::vector<Link>& links) {  // NOLINT(google-explicit-constructor)
    Append(links.data(), links.size());
  }
  CarriedLinks(const CarriedLinks& other) { Append(other.data(), other.size_); }
  CarriedLinks(CarriedLinks&& other) noexcept { Take(other); }
  CarriedLinks& operator=(const CarriedLinks& other) {
    if (this != &other) {
      size_ = 0;
      Append(other.data(), other.size_);
    }
    return *this;
  }
  CarriedLinks& operator=(CarriedLinks&& other) noexcept {
    if (this != &other) {
      Take(other);
    }
    return *this;
  }

  void push_back(const Link& link) {
    if (size_ == capacity()) {
      Grow(size_ * 2);
    }
    data()[size_++] = link;
  }
  void clear() { size_ = 0; }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Link& operator[](std::size_t i) const { return data()[i]; }
  const Link* begin() const { return data(); }
  const Link* end() const { return data() + size_; }

 private:
  std::uint32_t capacity() const { return heap_ != nullptr ? heap_capacity_ : kInline; }
  Link* data() { return heap_ != nullptr ? heap_.get() : inline_; }
  const Link* data() const { return heap_ != nullptr ? heap_.get() : inline_; }

  void Append(const Link* links, std::size_t n) {
    if (size_ + n > capacity()) {
      Grow(static_cast<std::uint32_t>(size_ + n));
    }
    std::copy(links, links + n, data() + size_);
    size_ += static_cast<std::uint32_t>(n);
  }
  void Grow(std::uint32_t capacity) {
    auto grown = std::make_unique<Link[]>(capacity);
    std::copy(begin(), end(), grown.get());
    heap_ = std::move(grown);
    heap_capacity_ = capacity;
  }
  void Take(CarriedLinks& other) {
    size_ = other.size_;
    heap_ = std::move(other.heap_);
    heap_capacity_ = other.heap_capacity_;
    if (heap_ == nullptr) {
      std::copy(other.inline_, other.inline_ + size_, inline_);
    }
    other.size_ = 0;
  }

  Link inline_[kInline];
  std::unique_ptr<Link[]> heap_;  // holds every link once past kInline
  std::uint32_t size_ = 0;
  std::uint32_t heap_capacity_ = 0;
};

struct Message {
  ProcessAddress sender;    // who sent it (kernel pseudo-address for kernel traffic)
  ProcessAddress receiver;  // where it is going; last_known_machine is rewritten on forward
  std::uint8_t flags = kLinkNone;  // copied from the link the message was sent over
  MsgType type = MsgType::kInvalid;
  PayloadRef payload;
  CarriedLinks carried_links;  // links passed inside the message (Sec. 2.4)

  bool deliver_to_kernel() const { return (flags & kLinkDeliverToKernel) != 0; }

  // Number of times this message has transited a forwarding address; used by
  // the E4/E9 benches to measure forwarding-chain lengths.
  std::uint8_t hop_count = 0;

  // Via path: the machines whose forwarding records this message traversed,
  // in traversal order (first kMaxViaSlots retained; via_count keeps the true
  // traversal count).  The final owner uses it to collapse multi-hop chains:
  // a delivery with via_count >= 2 sends each via machine a kChainCollapse so
  // the whole chain re-points at the owner in one step.
  static constexpr std::size_t kMaxViaSlots = 4;
  std::uint8_t via_count = 0;
  std::uint16_t via[kMaxViaSlots] = {};

  // Record a forwarding-hop transit through machine `m`.
  void RecordVia(MachineId m) {
    if (via_count < kMaxViaSlots) {
      via[via_count] = m;
    }
    if (via_count < 255) {
      ++via_count;
    }
  }

  // Lifecycle correlation id for the src/obs tracer: stamped by the first
  // kernel to Transmit the message (when tracing is enabled; 0 otherwise)
  // and preserved across forwarding hops and bounces, so a message's full
  // path through the cluster can be reconstructed from the merged trace.
  std::uint64_t trace_id = 0;

  // Fresh, owned encoding of the full message.  Cold paths only (embedding a
  // bounced message as a blob, golden-byte tests); the transmit path uses
  // Frame().
  Bytes Serialize() const;

  // The wire frame for transmission.  A message parsed off the wire keeps its
  // frame; only the mutable header fields (receiver machine, hop count, trace
  // id) differ between hops, so a forwarding hop or a pending-queue re-send
  // patches those bytes in place -- copy-on-write if the frame is still
  // shared with a retransmit buffer -- instead of re-serializing the body.
  // Falls back to a full encode when the frame is absent or stale (any
  // immutable field or the payload changed since parse).  On an rvalue (the
  // transmit path, which consumes the message) the frame is moved out and the
  // payload is not re-aliased, which saves three refcount updates per hop.
  PayloadRef Frame() &;
  PayloadRef Frame() &&;

  // Decode a wire frame.  The header is read at fixed offsets with one bounds
  // check per section (fixed header, carried links + payload length,
  // payload); the message keeps the frame and its payload aliases it, so
  // nothing is copied.
  static Result<Message> Deserialize(PayloadRef wire);

  // Size of the serialized fixed header (everything except payload bytes and
  // carried links).  Used by the byte-accounting benches.
  static std::size_t WireHeaderSize();

  std::size_t WireSize() const {
    return WireHeaderSize() + payload.size() + carried_links.size() * kLinkWireSize;
  }

  std::string ToString() const;

 private:
  bool FrameReusable() const;
  // Bring wire_ up to date for this hop; the payload's alias of the old
  // frame is dropped (Frame() & re-establishes it).
  void Reframe();

  // Cached wire frame this message was parsed from (or last encoded to) and
  // the byte offset of the payload within it.
  PayloadRef wire_;
  std::size_t payload_off_ = 0;
};

// Convenience: make the pseudo-address of machine `m`'s kernel.
inline ProcessAddress KernelAddress(MachineId m) {
  return ProcessAddress{m, ProcessId{m, 0}};
}

inline bool IsKernelPid(const ProcessId& pid) { return pid.local_id == 0; }

}  // namespace demos

#endif  // DEMOS_KERNEL_MESSAGE_H_
