// The "move data" facility (Sec. 2.2, 6).
//
// DEMOS/MP transfers large blocks -- file data and the three sections of a
// migrating process -- as a continuous stream of packets.  The receiving
// kernel acknowledges the stream, but the sender does not wait for
// acknowledgements before sending the next packet.  Streams into or out of a
// process's data area are addressed over DELIVERTOKERNEL links, so the
// instigating kernel never needs to know which machine the process is on.
//
// Acknowledgements are batched: the applying kernel accumulates up to
// `KernelConfig::data_window_packets` packets and then sends one cumulative
// kMoveDataAck covering all of them (bytes covered + packet count + first
// error).  The final packet of a stream, an error, and a target process
// freezing for migration all flush the pending batch immediately, so
// completion detection is prompt and every packet is acknowledged exactly
// once -- by whichever kernel applied it.  A window of 1 degenerates to the
// paper's one-ack-per-packet behavior.  Since the sender never gates on acks
// (Sec. 6), batching changes only the admin message count, not the stream.
//
// Two stream directions exist:
//   * PULL: the receiver allocated the transfer id and asked for the bytes
//     (migration section pulls, data-area reads).  Packets go kernel-to-kernel
//     and complete when the receiver has every byte.
//   * PUSH: data-area writes.  Packets are DELIVERTOKERNEL messages addressed
//     to the target process, so they chase it through forwarding addresses --
//     and may even be applied partly on the source machine (before the
//     migration snapshot, travelling onward inside the memory image) and
//     partly on the destination (held in the queue and forwarded, Sec. 2.2).
//     To make that work each push packet is fully self-describing, and the
//     *instigating* kernel detects completion by counting per-packet acks.
//
// This header holds the bookkeeping records and packet wire encodings; the
// logic lives in Kernel (kernel.cc).

#ifndef DEMOS_KERNEL_DATA_MOVER_H_
#define DEMOS_KERNEL_DATA_MOVER_H_

#include <cstdint>

#include "src/base/bytes.h"
#include "src/base/ids.h"
#include "src/base/status.h"
#include "src/sim/event_queue.h"

namespace demos {

// Sections of a migrating process, pulled by the destination kernel in
// migration steps 4-5.
enum class MigrationSection : std::uint8_t {
  kResidentState = 0,   // ~250 B: exec status, dispatch info, memory tables
  kSwappableState = 1,  // ~600 B: link table, timers, program state
  kMemoryImage = 2,     // program: code + data + stack
};

inline constexpr int kNumMigrationSections = 3;

inline const char* MigrationSectionName(MigrationSection s) {
  switch (s) {
    case MigrationSection::kResidentState:
      return "resident";
    case MigrationSection::kSwappableState:
      return "swappable";
    case MigrationSection::kMemoryImage:
      return "memory";
  }
  return "?";
}

enum class StreamMode : std::uint8_t { kPull = 0, kPush = 1 };

// Wire payload of a kMoveDataPacket message.
struct DataPacket {
  StreamMode mode = StreamMode::kPull;
  MachineId streamer = kNoMachine;  // kernel acknowledgements are sent to
  std::uint32_t transfer_id = 0;
  std::uint32_t offset = 0;  // byte offset of this chunk within the transfer
  std::uint32_t total = 0;   // total transfer length in bytes
  PayloadRef chunk;          // aliases the stream source / the wire frame

  // Push-only context (self-describing write): where the transfer lands in
  // the target's data segment, the data-area window of the link used (for
  // permission checking at whichever kernel applies the chunk), and who to
  // notify on completion.
  std::uint32_t area_base = 0;     // absolute data-segment offset of transfer byte 0
  std::uint32_t window_offset = 0;
  std::uint32_t window_length = 0;
  std::uint8_t link_flags = 0;
  ProcessAddress instigator;
  std::uint64_t cookie = 0;

  Bytes Encode() const {
    // Header (15 B, plus 29 B of write context for a push), the chunk's
    // length prefix and the chunk: sized up front so the pooled buffer never
    // grows while the chunk is copied in.
    ByteWriter w((mode == StreamMode::kPush ? 44 : 15) + 4 + chunk.size());
    w.U8(static_cast<std::uint8_t>(mode));
    w.U16(streamer);
    w.U32(transfer_id);
    w.U32(offset);
    w.U32(total);
    if (mode == StreamMode::kPush) {
      w.U32(area_base);
      w.U32(window_offset);
      w.U32(window_length);
      w.U8(link_flags);
      w.Address(instigator);
      w.U64(cookie);
    }
    w.BlobRef(chunk);
    return w.Take();
  }

  static Result<DataPacket> Decode(const PayloadRef& payload) {
    ByteReader r(payload);
    DataPacket p;
    p.mode = static_cast<StreamMode>(r.U8());
    p.streamer = r.U16();
    p.transfer_id = r.U32();
    p.offset = r.U32();
    p.total = r.U32();
    if (p.mode == StreamMode::kPush) {
      p.area_base = r.U32();
      p.window_offset = r.U32();
      p.window_length = r.U32();
      p.link_flags = r.U8();
      p.instigator = r.Address();
      p.cookie = r.U64();
    }
    p.chunk = r.BlobRef();  // aliases the message payload -- no copy
    if (!r.ok()) {
      return InvalidArgumentError("malformed data packet");
    }
    return p;
  }
};

// Wire payload of a kMoveDataAck message: one cumulative acknowledgement
// covering `packets` consecutive packets totalling `covered_bytes` of the
// stream, carrying the first non-OK status among them (push chunks can fail
// permission/bounds checks).
struct DataAck {
  StreamMode mode = StreamMode::kPull;
  std::uint32_t transfer_id = 0;
  std::uint32_t covered_bytes = 0;
  std::uint16_t packets = 0;
  StatusCode status = StatusCode::kOk;

  Bytes Encode() const {
    ByteWriter w;
    w.U8(static_cast<std::uint8_t>(mode));
    w.U32(transfer_id);
    w.U32(covered_bytes);
    w.U16(packets);
    w.U8(static_cast<std::uint8_t>(status));
    return w.Take();
  }

  static Result<DataAck> Decode(const PayloadRef& payload) {
    ByteReader r(payload);
    DataAck a;
    a.mode = static_cast<StreamMode>(r.U8());
    a.transfer_id = r.U32();
    a.covered_bytes = r.U32();
    a.packets = r.U16();
    a.status = static_cast<StatusCode>(r.U8());
    if (!r.ok()) {
      return InvalidArgumentError("malformed data ack");
    }
    return a;
  }
};

// Wire payload of a kReadDataArea announce (DELIVERTOKERNEL to the target
// process; the hosting kernel streams the window back to the instigator's
// kernel).
struct ReadAreaRequest {
  std::uint32_t transfer_id = 0;  // allocated by the instigating kernel
  std::uint32_t area_offset = 0;  // offset within the link's data window
  std::uint32_t length = 0;
  std::uint32_t window_offset = 0;  // the data window of the link used
  std::uint32_t window_length = 0;
  std::uint8_t link_flags = 0;
  MachineId reply_machine = kNoMachine;  // instigator's kernel
  ProcessAddress instigator;
  std::uint64_t cookie = 0;

  Bytes Encode() const {
    ByteWriter w;
    w.U32(transfer_id);
    w.U32(area_offset);
    w.U32(length);
    w.U32(window_offset);
    w.U32(window_length);
    w.U8(link_flags);
    w.U16(reply_machine);
    w.Address(instigator);
    w.U64(cookie);
    return w.Take();
  }

  static Result<ReadAreaRequest> Decode(const PayloadRef& payload) {
    ByteReader r(payload);
    ReadAreaRequest q;
    q.transfer_id = r.U32();
    q.area_offset = r.U32();
    q.length = r.U32();
    q.window_offset = r.U32();
    q.window_length = r.U32();
    q.link_flags = r.U8();
    q.reply_machine = r.U16();
    q.instigator = r.Address();
    q.cookie = r.U64();
    if (!r.ok()) {
      return InvalidArgumentError("malformed read-area request");
    }
    return q;
  }
};

// Sender-side record of a stream with acknowledgements outstanding.  The
// stream completes when every byte is accounted for by cumulative acks
// (applied or rejected) and at least one ack has arrived -- the latter makes
// zero-length transfers (one empty packet, one ack) terminate.
struct OutgoingTransfer {
  enum class Purpose : std::uint8_t { kPlain, kAreaWrite };
  Purpose purpose = Purpose::kPlain;
  std::uint32_t packet_count = 0;
  std::uint32_t acked_packets = 0;
  std::uint64_t acked_bytes = 0;
  std::size_t total_bytes = 0;
  StatusCode first_error = StatusCode::kOk;
  // For kAreaWrite: who gets the kDataMoveDone.
  ProcessAddress instigator;
  std::uint64_t cookie = 0;
  // Migration section streams: each arriving ack counts as transfer progress
  // for the source-side migration watchdog of `migration_pid`.
  bool for_migration = false;
  ProcessId migration_pid;
};

// Receiver-side record of a PULL stream this kernel requested.
struct IncomingPull {
  enum class Purpose : std::uint8_t { kMigrationSection, kAreaRead };
  Purpose purpose = Purpose::kMigrationSection;
  Bytes buffer;
  std::uint32_t received = 0;
  bool sized = false;
  // Batched-ack accumulator (flushed per KernelConfig::data_window_packets).
  std::uint32_t unacked_bytes = 0;
  std::uint16_t unacked_packets = 0;
  // Migration pulls:
  ProcessId migrating_pid;
  MigrationSection section = MigrationSection::kResidentState;
  // Area reads:
  ProcessAddress instigator;  // process to notify with kDataMoveDone
  std::uint64_t cookie = 0;
};

// Receiver-side accumulator for batched acks of a PUSH stream.  Keyed by
// (streamer machine, transfer id) at whichever kernel applies the chunks;
// flushed when the window fills, on the stream's final packet, on the first
// error, and when the target process freezes for migration or exits (so the
// instigator's byte accounting stays exact across a mid-stream migration).
struct PushAckState {
  MachineId streamer = kNoMachine;
  ProcessId target;
  std::uint32_t covered_bytes = 0;
  std::uint16_t packets = 0;
  StatusCode first_error = StatusCode::kOk;
};

}  // namespace demos

#endif  // DEMOS_KERNEL_DATA_MOVER_H_
