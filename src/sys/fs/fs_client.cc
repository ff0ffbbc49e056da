#include "src/sys/fs/fs_client.h"

#include <algorithm>
#include <memory>

#include "src/base/log.h"

namespace demos {
namespace {
constexpr std::uint64_t kThinkCookie = 0x7417C;

struct ConfigView {
  std::uint32_t magic = 0;
  std::uint32_t mode = 0;
  std::uint32_t io_size = 0;
  std::uint32_t op_count = 0;
  std::uint64_t think_us = 0;
  std::uint32_t file_span = 0;
  std::string file_name;

  static ConfigView Read(const Context& ctx) {
    ConfigView v;
    ByteReader r(ctx.ReadData(0, 28));
    v.magic = r.U32();
    v.mode = r.U32();
    v.io_size = r.U32();
    v.op_count = r.U32();
    v.think_us = r.U64();
    v.file_span = r.U32();
    ByteReader name(ctx.ReadData(28, std::min<std::uint32_t>(ctx.DataSize() - 28, 128)));
    v.file_name = name.Str();
    return v;
  }
};
}  // namespace

Bytes FsClientConfig::Encode() const {
  ByteWriter w;
  w.U32(kFsClientMagic);
  w.U32(mode);
  w.U32(io_size);
  w.U32(op_count);
  w.U64(think_us);
  w.U32(file_span);
  w.Str(file_name);
  return w.Take();
}

FsClientResults FsClientResults::Decode(const Bytes& window) {
  ByteReader r(window);
  FsClientResults results;
  results.completed = r.U64();
  results.errors = r.U64();
  results.total_latency_us = r.U64();
  results.done = r.U64();
  results.max_latency_us = r.U64();
  return results;
}

void FileClientProgram::Accumulate(Context& ctx, std::uint32_t offset, std::uint64_t delta,
                                   bool is_max) {
  std::uint8_t buf[8];
  ByteReader r(buf, ctx.ReadDataInto(offset, buf, sizeof buf) ? sizeof buf : 0);
  const std::uint64_t current = r.U64();
  ByteWriter w;
  w.U64(is_max ? std::max(current, delta) : current + delta);
  (void)ctx.WriteData(offset, w.bytes());
}

void FileClientProgram::OnStart(Context& ctx) { LookupFs(ctx); }

void FileClientProgram::LookupFs(Context& ctx) {
  ByteWriter w;
  w.Str(kNameFileSystem);
  (void)ctx.Send(kSwitchboardSlot, kSbLookup, w.Take(), {ctx.MakeLink(kLinkReply)});
}

void FileClientProgram::OpenFile(Context& ctx) {
  const ConfigView config = ConfigView::Read(ctx);
  ByteWriter w;
  w.Str(config.file_name);
  w.U8(1);  // create if missing
  (void)ctx.Send(fs_slot_, kFsOpen, w.Take(), {ctx.MakeLink(kLinkReply)});
}

void FileClientProgram::OnMessage(Context& ctx, const Message& msg) {
  switch (TypeCode(msg.type)) {
    case TypeCode(kSbLookupReply): {
      ByteReader r(msg.payload);
      const auto status = static_cast<StatusCode>(r.U8());
      if (status != StatusCode::kOk || msg.carried_links.empty()) {
        // The file system may not be registered yet; retry shortly.
        ctx.SetTimer(5000, kThinkCookie + 1);
        return;
      }
      if (fs_slot_ != kNoLink) {
        (void)ctx.RemoveLink(fs_slot_);
      }
      fs_slot_ = ctx.AddLink(msg.carried_links[0]);
      OpenFile(ctx);
      return;
    }
    case TypeCode(kFsOpenReply): {
      ByteReader r(msg.payload);
      const auto status = static_cast<StatusCode>(r.U8());
      if (status != StatusCode::kOk) {
        Accumulate(ctx, 72, 1);
        ByteWriter done;
        done.U64(1);
        (void)ctx.WriteData(88, done.bytes());
        return;
      }
      handle_ = r.U32();
      opened_ = true;
      NextOp(ctx);
      return;
    }
    case TypeCode(kFsReadReply):
    case TypeCode(kFsWriteReply): {
      ByteReader r(msg.payload);
      const auto status = static_cast<StatusCode>(r.U8());
      FinishOne(ctx, status != StatusCode::kOk, ctx.now() - op_started_at_);
      return;
    }
    default:
      return;
  }
}

void FileClientProgram::OnTimer(Context& ctx, std::uint64_t cookie) {
  if (cookie == kThinkCookie) {
    NextOp(ctx);
  } else if (cookie == kThinkCookie + 1) {
    LookupFs(ctx);
  }
}

void FileClientProgram::NextOp(Context& ctx) {
  const ConfigView config = ConfigView::Read(ctx);
  if (config.magic != kFsClientMagic || config.op_count == 0) {
    ByteWriter done;
    done.U64(1);
    (void)ctx.WriteData(88, done.bytes());
    return;
  }
  if (op_index_ >= config.op_count) {
    ByteWriter done;
    done.U64(1);
    (void)ctx.WriteData(88, done.bytes());
    return;
  }

  const std::uint32_t span_ios =
      std::max<std::uint32_t>(1, config.file_span / std::max<std::uint32_t>(1, config.io_size));
  const std::uint32_t offset = (op_index_ % span_ios) * config.io_size;
  const bool is_write = config.mode == 1 || (config.mode == 2 && op_index_ % 2 == 0);

  if (is_write) {
    // Fill the buffer with a recognizable pattern keyed by the op index.
    Bytes pattern(config.io_size);
    for (std::size_t i = 0; i < pattern.size(); ++i) {
      pattern[i] = static_cast<std::uint8_t>(op_index_ + i);
    }
    (void)ctx.WriteData(kFsClientBufferOffset, pattern);
  }

  ByteWriter w;
  w.U32(handle_);
  w.U32(offset);
  w.U32(config.io_size);
  CarriedLinks carry;
  carry.push_back(ctx.MakeLink(kLinkReply));
  carry.push_back(ctx.MakeLink(is_write ? kLinkDataRead : kLinkDataWrite,
                               kFsClientBufferOffset, config.io_size));
  op_started_at_ = ctx.now();
  (void)ctx.Send(fs_slot_, is_write ? kFsWrite : kFsRead, w.Take(), std::move(carry));
}

void FileClientProgram::FinishOne(Context& ctx, bool error, std::uint64_t latency_us) {
  Accumulate(ctx, 64, 1);
  if (error) {
    Accumulate(ctx, 72, 1);
  }
  Accumulate(ctx, 80, latency_us);
  Accumulate(ctx, 96, latency_us, /*is_max=*/true);
  ++op_index_;

  const ConfigView config = ConfigView::Read(ctx);
  if (config.think_us > 0) {
    ctx.SetTimer(config.think_us, kThinkCookie);
  } else {
    NextOp(ctx);
  }
}

Bytes FileClientProgram::SaveState() const {
  ByteWriter w;
  w.U32(fs_slot_);
  w.U32(handle_);
  w.U32(op_index_);
  w.U64(op_started_at_);
  w.U8(opened_ ? 1 : 0);
  return w.Take();
}

void FileClientProgram::RestoreState(const Bytes& state) {
  ByteReader r(state);
  fs_slot_ = r.U32();
  handle_ = r.U32();
  op_index_ = r.U32();
  op_started_at_ = r.U64();
  opened_ = r.U8() != 0;
}

void RegisterFileClientProgram() {
  static const bool registered = [] {
    ProgramRegistry::Instance().Register(
        "fs_client", [] { return std::make_unique<FileClientProgram>(); });
    return true;
  }();
  (void)registered;
}

}  // namespace demos
