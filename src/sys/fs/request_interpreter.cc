#include "src/sys/fs/request_interpreter.h"

#include <algorithm>
#include <memory>

#include "src/base/log.h"

namespace demos {
namespace {
constexpr std::uint32_t kHoleSector = 0xFFFFFFFFu;
constexpr std::uint32_t kMaxIoBytes = 256 * 1024;
}  // namespace

std::uint64_t RequestInterpreterProgram::NewSub(std::uint64_t op_id, std::uint32_t index) {
  const std::uint64_t sub = next_sub_++;
  subs_[sub] = SubRef{op_id, index};
  return sub;
}

Status RequestInterpreterProgram::SendDir(Context& ctx, MsgType type, Bytes payload) {
  if (directory_slot_ == kNoLink) {
    return UnavailableError("request interpreter has no directory link");
  }
  return ctx.Send(directory_slot_, type, std::move(payload), {ctx.MakeLink(kLinkReply)});
}

Status RequestInterpreterProgram::SendBuf(Context& ctx, MsgType type, Bytes payload) {
  if (buffers_slot_ == kNoLink) {
    return UnavailableError("request interpreter has no buffer-manager link");
  }
  return ctx.Send(buffers_slot_, type, std::move(payload), {ctx.MakeLink(kLinkReply)});
}

void RequestInterpreterProgram::OnMessage(Context& ctx, const Message& msg) {
  switch (TypeCode(msg.type)) {
    case TypeCode(kFsOpen):
      HandleOpen(ctx, msg);
      return;
    case TypeCode(kFsRead):
      HandleReadWrite(ctx, msg, /*is_write=*/false);
      return;
    case TypeCode(kFsWrite):
      HandleReadWrite(ctx, msg, /*is_write=*/true);
      return;
    case TypeCode(kFsClose):
      HandleClose(ctx, msg);
      return;
    case TypeCode(kDirReply):
      HandleDirReply(ctx, msg);
      return;
    case TypeCode(kDirBlocksReply):
      HandleBlocksReply(ctx, msg);
      return;
    case TypeCode(kBufReadReply):
      HandleBufReadReply(ctx, msg);
      return;
    case TypeCode(kBufWriteReply):
      HandleBufWriteReply(ctx, msg);
      return;
    case TypeCode(kDirSizeReply):
      HandleSizeReply(ctx, msg);
      return;
    case TypeCode(kFsAttach): {
      ByteReader r(msg.payload);
      const std::string role = r.Str();
      if (!msg.carried_links.empty()) {
        if (role == "directory") {
          directory_slot_ = ctx.AddLink(msg.carried_links[0]);
        } else if (role == "buffers") {
          buffers_slot_ = ctx.AddLink(msg.carried_links[0]);
        }
      }
      return;
    }
    default:
      return;
  }
}

void RequestInterpreterProgram::FinishOp(Context& ctx, Op& op, MsgType reply_type,
                                         Bytes payload) {
  if (op.client_reply.has_value()) {
    (void)ctx.SendOnLink(*op.client_reply, reply_type, std::move(payload));
  }
  ++completed_ops_;
  ops_.erase(op.id);  // invalidates `op`
}

// ---------------------------------------------------------------------------
// Open / close.
// ---------------------------------------------------------------------------

void RequestInterpreterProgram::HandleOpen(Context& ctx, const Message& msg) {
  ByteReader r(msg.payload);
  Op op;
  op.kind = OpKind::kOpen;
  op.phase = Phase::kLookup;
  op.id = next_op_++;
  op.name = r.Str();
  op.create = r.U8() != 0;
  if (!msg.carried_links.empty()) {
    op.client_reply = msg.carried_links[0];
  }

  ByteWriter w;
  w.U64(NewSub(op.id, 0));
  w.Str(op.name);
  w.U8(op.create ? 1 : 0);
  Status sent = SendDir(ctx, kDirLookup, w.Take());
  if (!sent.ok()) {
    ByteWriter reply;
    reply.U8(static_cast<std::uint8_t>(sent.code()));
    reply.U32(0);
    reply.U32(0);
    ops_[op.id] = op;
    FinishOp(ctx, ops_[op.id], kFsOpenReply, reply.Take());
    return;
  }
  ops_[op.id] = std::move(op);
}

void RequestInterpreterProgram::HandleDirReply(Context& ctx, const Message& msg) {
  ByteReader r(msg.payload);
  const std::uint64_t sub = r.U64();
  auto sit = subs_.find(sub);
  if (sit == subs_.end()) {
    return;
  }
  const std::uint64_t op_id = sit->second.op_id;
  subs_.erase(sit);
  auto oit = ops_.find(op_id);
  if (oit == ops_.end()) {
    return;
  }
  Op& op = oit->second;

  const auto status = static_cast<StatusCode>(r.U8());
  const std::uint32_t file_id = r.U32();
  const std::uint32_t size = r.U32();

  ByteWriter reply;
  reply.U8(static_cast<std::uint8_t>(status));
  if (status == StatusCode::kOk) {
    const std::uint32_t handle = next_handle_++;
    handles_[handle] = HandleInfo{file_id, size};
    reply.U32(handle);
    reply.U32(size);
  } else {
    reply.U32(0);
    reply.U32(0);
  }
  FinishOp(ctx, op, kFsOpenReply, reply.Take());
}

void RequestInterpreterProgram::HandleClose(Context& ctx, const Message& msg) {
  ByteReader r(msg.payload);
  const std::uint32_t handle = r.U32();
  const bool known = handles_.erase(handle) != 0;
  if (!msg.carried_links.empty()) {
    ByteWriter w;
    w.U8(static_cast<std::uint8_t>(known ? StatusCode::kOk : StatusCode::kNotFound));
    Message fake;
    fake.carried_links = msg.carried_links;
    (void)ctx.Reply(fake, kFsCloseReply, w.Take());
  }
  ++completed_ops_;
}

// ---------------------------------------------------------------------------
// Read / write entry.
// ---------------------------------------------------------------------------

void RequestInterpreterProgram::HandleReadWrite(Context& ctx, const Message& msg,
                                                bool is_write) {
  ByteReader r(msg.payload);
  Op op;
  op.kind = is_write ? OpKind::kWrite : OpKind::kRead;
  op.id = next_op_++;
  op.handle = r.U32();
  op.offset = r.U32();
  op.length = r.U32();
  if (!msg.carried_links.empty()) {
    op.client_reply = msg.carried_links[0];
  }
  if (msg.carried_links.size() > 1) {
    op.client_data = msg.carried_links[1];
  }

  auto hit = handles_.find(op.handle);
  StatusCode early = StatusCode::kOk;
  if (hit == handles_.end()) {
    early = StatusCode::kNotFound;
  } else if (op.length > kMaxIoBytes ||
             std::uint64_t{op.offset} + op.length > kFsMaxBlocksPerFile * kFsBlockSize) {
    early = StatusCode::kInvalidArgument;
  } else if (!op.client_data.has_value() && op.length > 0) {
    early = StatusCode::kInvalidArgument;
  }
  if (early == StatusCode::kOk && !is_write) {
    // Clamp reads to the current file size.
    const std::uint32_t size = hit->second.size;
    if (op.offset >= size) {
      op.length = 0;
    } else {
      op.length = std::min(op.length, size - op.offset);
    }
  }
  if (early != StatusCode::kOk || op.length == 0) {
    ByteWriter w;
    w.U8(static_cast<std::uint8_t>(early));
    w.U32(0);
    ops_[op.id] = op;
    FinishOp(ctx, ops_[op.id], is_write ? kFsWriteReply : kFsReadReply, w.Take());
    return;
  }
  op.file_id = hit->second.file_id;

  if (is_write) {
    // Pull the client's bytes first (move-data over the carried data link).
    op.phase = Phase::kMoveIn;
    const LinkId slot = ctx.AddLink(*op.client_data);
    const std::uint64_t sub = NewSub(op.id, 0);
    Status pulled = ctx.MoveDataFrom(slot, 0, op.length, sub);
    (void)ctx.RemoveLink(slot);
    if (!pulled.ok()) {
      subs_.erase(sub);
      ByteWriter w;
      w.U8(static_cast<std::uint8_t>(pulled.code()));
      w.U32(0);
      ops_[op.id] = op;
      FinishOp(ctx, ops_[op.id], kFsWriteReply, w.Take());
      return;
    }
    ops_[op.id] = std::move(op);
    return;
  }

  // Read: fetch the sector list.
  op.phase = Phase::kGetBlocks;
  const std::uint32_t first = op.offset / kFsBlockSize;
  const std::uint32_t last = (op.offset + op.length - 1) / kFsBlockSize;
  ByteWriter w;
  w.U64(NewSub(op.id, 0));
  w.U32(op.file_id);
  w.U32(first);
  w.U32(last - first + 1);
  w.U8(0);  // no allocation on read
  (void)SendDir(ctx, kDirGetBlocks, w.Take());
  ops_[op.id] = std::move(op);
}

// ---------------------------------------------------------------------------
// Sector fan-out machinery.
// ---------------------------------------------------------------------------

void RequestInterpreterProgram::HandleBlocksReply(Context& ctx, const Message& msg) {
  ByteReader r(msg.payload);
  const std::uint64_t sub = r.U64();
  auto sit = subs_.find(sub);
  if (sit == subs_.end()) {
    return;
  }
  const std::uint64_t op_id = sit->second.op_id;
  subs_.erase(sit);
  auto oit = ops_.find(op_id);
  if (oit == ops_.end()) {
    return;
  }
  Op& op = oit->second;

  const auto status = static_cast<StatusCode>(r.U8());
  const std::uint32_t available = r.U32();
  const std::uint32_t first = op.offset / kFsBlockSize;
  const std::uint32_t last = (op.offset + op.length - 1) / kFsBlockSize;
  const std::uint32_t needed = last - first + 1;

  if (status != StatusCode::kOk) {
    ByteWriter w;
    w.U8(static_cast<std::uint8_t>(status));
    w.U32(0);
    FinishOp(ctx, op, op.kind == OpKind::kWrite ? kFsWriteReply : kFsReadReply, w.Take());
    return;
  }
  op.sectors.assign(needed, kHoleSector);
  for (std::uint32_t i = 0; i < available && i < needed; ++i) {
    op.sectors[i] = r.U32();
  }
  op.data.assign(std::size_t{needed} * kFsBlockSize, 0);

  if (op.kind == OpKind::kRead) {
    op.phase = Phase::kSectorIo;
    StartSectorReads(ctx, op, /*partial_only=*/false);
  } else {
    // Write: the client bytes were already pulled into op.data's span in
    // HandleBlocksReply's caller?  No -- they sit in op.data after MoveIn;
    // we stashed them aside.  Lay the span out and read partial edges first.
    op.phase = Phase::kSectorIo;
    StartSectorReads(ctx, op, /*partial_only=*/true);
  }
}

void RequestInterpreterProgram::StartSectorReads(Context& ctx, Op& op, bool partial_only) {
  const std::uint32_t first = op.offset / kFsBlockSize;
  const auto needed = static_cast<std::uint32_t>(op.sectors.size());
  op.outstanding = 0;
  for (std::uint32_t i = 0; i < needed; ++i) {
    if (op.sectors[i] == kHoleSector) {
      continue;  // hole: span already zero-filled
    }
    if (partial_only) {
      const bool first_partial = i == 0 && op.offset % kFsBlockSize != 0;
      const bool last_partial =
          i == needed - 1 && (op.offset + op.length) % kFsBlockSize != 0;
      if (!first_partial && !last_partial) {
        continue;
      }
    }
    ByteWriter w;
    w.U64(NewSub(op.id, i));
    w.U32(op.sectors[i]);
    (void)SendBuf(ctx, kBufRead, w.Take());
    ++op.outstanding;
  }
  (void)first;
  if (op.outstanding == 0) {
    if (op.kind == OpKind::kRead) {
      FinishRead(ctx, op);
    } else {
      IssueSectorWrites(ctx, op);
    }
  }
}

void RequestInterpreterProgram::HandleBufReadReply(Context& ctx, const Message& msg) {
  ByteReader r(msg.payload);
  const std::uint64_t sub = r.U64();
  auto sit = subs_.find(sub);
  if (sit == subs_.end()) {
    return;
  }
  const SubRef ref = sit->second;
  subs_.erase(sit);
  auto oit = ops_.find(ref.op_id);
  if (oit == ops_.end()) {
    return;
  }
  Op& op = oit->second;

  const auto status = static_cast<StatusCode>(r.U8());
  Bytes data = r.Blob();
  if (status != StatusCode::kOk && op.status == StatusCode::kOk) {
    op.status = status;
  }
  const std::size_t at = std::size_t{ref.index} * kFsBlockSize;
  if (status == StatusCode::kOk && at + data.size() <= op.data.size()) {
    std::copy(data.begin(), data.end(), op.data.begin() + static_cast<std::ptrdiff_t>(at));
  }
  if (--op.outstanding > 0) {
    return;
  }
  if (op.kind == OpKind::kRead) {
    FinishRead(ctx, op);
  } else {
    IssueSectorWrites(ctx, op);
  }
}

void RequestInterpreterProgram::FinishRead(Context& ctx, Op& op) {
  // Extract the requested byte range from the sector span and push it into
  // the client's data area.
  const std::uint32_t skip = op.offset % kFsBlockSize;
  Bytes slice(op.data.begin() + skip, op.data.begin() + skip + op.length);

  if (op.status != StatusCode::kOk || !op.client_data.has_value()) {
    ByteWriter w;
    w.U8(static_cast<std::uint8_t>(op.status));
    w.U32(0);
    FinishOp(ctx, op, kFsReadReply, w.Take());
    return;
  }
  op.phase = Phase::kMoveOut;
  const LinkId slot = ctx.AddLink(*op.client_data);
  const std::uint64_t sub = NewSub(op.id, 0);
  Status pushed = ctx.MoveDataTo(slot, 0, std::move(slice), sub);
  (void)ctx.RemoveLink(slot);
  if (!pushed.ok()) {
    subs_.erase(sub);
    ByteWriter w;
    w.U8(static_cast<std::uint8_t>(pushed.code()));
    w.U32(0);
    FinishOp(ctx, op, kFsReadReply, w.Take());
  }
}

void RequestInterpreterProgram::IssueSectorWrites(Context& ctx, Op& op) {
  // Overlay the client's bytes (stashed in op.data's tail by OnDataMoveDone
  // via a temporary hold in `name`?  No: they live in op.data only for reads.
  // For writes the pulled bytes are in op.data before the span was laid out;
  // see OnDataMoveDone, which keeps them in `write_payload` -- serialized as
  // part of op.data handling below).
  //
  // Implementation note: OnDataMoveDone stored the client's bytes in op.data;
  // HandleBlocksReply then resized op.data to the span and partial-sector
  // reads merged the old edges.  To keep both, OnDataMoveDone moves the bytes
  // into op.name (an opaque byte stash for write ops -- never a file name).
  const std::uint32_t skip = op.offset % kFsBlockSize;
  for (std::size_t i = 0; i < op.name.size() && skip + i < op.data.size(); ++i) {
    op.data[skip + i] = static_cast<std::uint8_t>(op.name[i]);
  }

  op.phase = Phase::kMergeWrite;
  op.outstanding = 0;
  for (std::uint32_t i = 0; i < op.sectors.size(); ++i) {
    if (op.sectors[i] == kHoleSector) {
      if (op.status == StatusCode::kOk) {
        op.status = StatusCode::kExhausted;  // allocation failed upstream
      }
      continue;
    }
    ByteWriter w;
    w.U64(NewSub(op.id, i));
    w.U32(op.sectors[i]);
    const std::size_t at = std::size_t{i} * kFsBlockSize;
    w.Blob(Bytes(op.data.begin() + static_cast<std::ptrdiff_t>(at),
                 op.data.begin() + static_cast<std::ptrdiff_t>(at + kFsBlockSize)));
    (void)SendBuf(ctx, kBufWrite, w.Take());
    ++op.outstanding;
  }
  if (op.outstanding == 0) {
    ByteWriter w;
    w.U8(static_cast<std::uint8_t>(op.status));
    w.U32(0);
    FinishOp(ctx, op, kFsWriteReply, w.Take());
  }
}

void RequestInterpreterProgram::HandleBufWriteReply(Context& ctx, const Message& msg) {
  ByteReader r(msg.payload);
  const std::uint64_t sub = r.U64();
  auto sit = subs_.find(sub);
  if (sit == subs_.end()) {
    return;
  }
  const std::uint64_t op_id = sit->second.op_id;
  subs_.erase(sit);
  auto oit = ops_.find(op_id);
  if (oit == ops_.end()) {
    return;
  }
  Op& op = oit->second;
  const auto status = static_cast<StatusCode>(r.U8());
  if (status != StatusCode::kOk && op.status == StatusCode::kOk) {
    op.status = status;
  }
  if (--op.outstanding > 0) {
    return;
  }

  // All sectors written: record the new size.
  op.phase = Phase::kSetSize;
  const std::uint32_t new_end = op.offset + op.length;
  auto hit = handles_.find(op.handle);
  if (hit != handles_.end() && new_end > hit->second.size) {
    hit->second.size = new_end;
  }
  ByteWriter w;
  w.U64(NewSub(op.id, 0));
  w.U32(op.file_id);
  w.U32(new_end);
  (void)SendDir(ctx, kDirSetSize, w.Take());
}

void RequestInterpreterProgram::HandleSizeReply(Context& ctx, const Message& msg) {
  ByteReader r(msg.payload);
  const std::uint64_t sub = r.U64();
  auto sit = subs_.find(sub);
  if (sit == subs_.end()) {
    return;
  }
  const std::uint64_t op_id = sit->second.op_id;
  subs_.erase(sit);
  auto oit = ops_.find(op_id);
  if (oit == ops_.end()) {
    return;
  }
  Op& op = oit->second;
  ByteWriter w;
  w.U8(static_cast<std::uint8_t>(op.status));
  w.U32(op.status == StatusCode::kOk ? op.length : 0);
  FinishOp(ctx, op, kFsWriteReply, w.Take());
}

void RequestInterpreterProgram::OnDataMoveDone(Context& ctx, const DataMoveResult& result) {
  auto sit = subs_.find(result.cookie);
  if (sit == subs_.end()) {
    return;
  }
  const std::uint64_t op_id = sit->second.op_id;
  subs_.erase(sit);
  auto oit = ops_.find(op_id);
  if (oit == ops_.end()) {
    return;
  }
  Op& op = oit->second;

  if (op.phase == Phase::kMoveIn) {
    if (!result.status.ok()) {
      ByteWriter w;
      w.U8(static_cast<std::uint8_t>(result.status.code()));
      w.U32(0);
      FinishOp(ctx, op, kFsWriteReply, w.Take());
      return;
    }
    // Stash the client bytes (see IssueSectorWrites) and fetch the sectors.
    op.name.assign(result.data.begin(), result.data.end());
    op.phase = Phase::kGetBlocks;
    const std::uint32_t first = op.offset / kFsBlockSize;
    const std::uint32_t last = (op.offset + op.length - 1) / kFsBlockSize;
    ByteWriter w;
    w.U64(NewSub(op.id, 0));
    w.U32(op.file_id);
    w.U32(first);
    w.U32(last - first + 1);
    w.U8(1);  // allocate
    (void)SendDir(ctx, kDirGetBlocks, w.Take());
    return;
  }

  if (op.phase == Phase::kMoveOut) {
    ByteWriter w;
    w.U8(static_cast<std::uint8_t>(result.status.ok() ? StatusCode::kOk
                                                      : result.status.code()));
    w.U32(result.status.ok() ? op.length : 0);
    FinishOp(ctx, op, kFsReadReply, w.Take());
  }
}

// ---------------------------------------------------------------------------
// State (de)serialization -- everything an in-flight operation needs.
// ---------------------------------------------------------------------------

Bytes RequestInterpreterProgram::SaveState() const {
  ByteWriter w;
  w.U32(static_cast<std::uint32_t>(handles_.size()));
  for (const auto& [handle, info] : handles_) {
    w.U32(handle);
    w.U32(info.file_id);
    w.U32(info.size);
  }
  w.U32(static_cast<std::uint32_t>(ops_.size()));
  for (const auto& [id, op] : ops_) {
    w.U64(id);
    w.U8(static_cast<std::uint8_t>(op.kind));
    w.U8(static_cast<std::uint8_t>(op.phase));
    w.U8(op.client_reply.has_value() ? 1 : 0);
    if (op.client_reply.has_value()) {
      op.client_reply->Serialize(w);
    }
    w.U8(op.client_data.has_value() ? 1 : 0);
    if (op.client_data.has_value()) {
      op.client_data->Serialize(w);
    }
    w.Str(op.name);
    w.U32(op.handle);
    w.U32(op.file_id);
    w.U32(op.offset);
    w.U32(op.length);
    w.Blob(op.data);
    w.U32(static_cast<std::uint32_t>(op.sectors.size()));
    for (std::uint32_t sector : op.sectors) {
      w.U32(sector);
    }
    w.U32(op.outstanding);
    w.U8(static_cast<std::uint8_t>(op.status));
    w.U8(op.create ? 1 : 0);
  }
  w.U32(static_cast<std::uint32_t>(subs_.size()));
  for (const auto& [sub, ref] : subs_) {
    w.U64(sub);
    w.U64(ref.op_id);
    w.U32(ref.index);
  }
  w.U32(directory_slot_);
  w.U32(buffers_slot_);
  w.U32(next_handle_);
  w.U64(next_op_);
  w.U64(next_sub_);
  w.I64(completed_ops_);
  return w.Take();
}

void RequestInterpreterProgram::RestoreState(const Bytes& state) {
  ByteReader r(state);
  handles_.clear();
  const std::uint32_t n_handles = r.U32();
  for (std::uint32_t i = 0; i < n_handles && r.ok(); ++i) {
    const std::uint32_t handle = r.U32();
    HandleInfo info;
    info.file_id = r.U32();
    info.size = r.U32();
    handles_[handle] = info;
  }
  ops_.clear();
  const std::uint32_t n_ops = r.U32();
  for (std::uint32_t i = 0; i < n_ops && r.ok(); ++i) {
    const std::uint64_t id = r.U64();
    Op op;
    op.id = id;
    op.kind = static_cast<OpKind>(r.U8());
    op.phase = static_cast<Phase>(r.U8());
    if (r.U8() != 0) {
      op.client_reply = Link::Deserialize(r);
    }
    if (r.U8() != 0) {
      op.client_data = Link::Deserialize(r);
    }
    op.name = r.Str();
    op.handle = r.U32();
    op.file_id = r.U32();
    op.offset = r.U32();
    op.length = r.U32();
    op.data = r.Blob();
    const std::uint32_t n_sectors = r.U32();
    for (std::uint32_t j = 0; j < n_sectors && r.ok(); ++j) {
      op.sectors.push_back(r.U32());
    }
    op.outstanding = r.U32();
    op.status = static_cast<StatusCode>(r.U8());
    op.create = r.U8() != 0;
    ops_[id] = std::move(op);
  }
  subs_.clear();
  const std::uint32_t n_subs = r.U32();
  for (std::uint32_t i = 0; i < n_subs && r.ok(); ++i) {
    const std::uint64_t sub = r.U64();
    SubRef ref;
    ref.op_id = r.U64();
    ref.index = r.U32();
    subs_[sub] = ref;
  }
  directory_slot_ = r.U32();
  buffers_slot_ = r.U32();
  next_handle_ = r.U32();
  next_op_ = r.U64();
  next_sub_ = r.U64();
  completed_ops_ = r.I64();
}

void RegisterRequestInterpreterProgram() {
  static const bool registered = [] {
    ProgramRegistry::Instance().Register(
        "fs.request_interpreter", [] { return std::make_unique<RequestInterpreterProgram>(); });
    return true;
  }();
  (void)registered;
}

}  // namespace demos
