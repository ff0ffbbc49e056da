#include "src/sys/fs/buffer_manager.h"

#include <algorithm>
#include <memory>

namespace demos {

BufferManagerConfig& DefaultBufferManagerConfig() {
  static BufferManagerConfig config;
  return config;
}

BufferManagerProgram::BufferManagerProgram() : config_(DefaultBufferManagerConfig()) {}

void BufferManagerProgram::OnMessage(Context& ctx, const Message& msg) {
  switch (TypeCode(msg.type)) {
    case TypeCode(kBufRead):
      HandleRead(ctx, msg);
      return;
    case TypeCode(kBufWrite):
      HandleWrite(ctx, msg);
      return;
    case TypeCode(kDiskReadReply):
      HandleDiskReadReply(ctx, msg);
      return;
    case TypeCode(kFsAttach):
      if (!msg.carried_links.empty()) {
        disk_slot_ = ctx.AddLink(msg.carried_links[0]);
      }
      return;
    default:
      return;
  }
}

void BufferManagerProgram::Touch(std::uint32_t sector) {
  lru_.remove(sector);
  lru_.push_front(sector);
}

void BufferManagerProgram::SendToDisk(Context& ctx, bool write, std::uint64_t cookie,
                                      std::uint32_t sector, Bytes data, bool want_reply) {
  if (disk_slot_ == kNoLink) {
    return;
  }
  ByteWriter w;
  w.U64(cookie);
  w.U32(sector);
  if (write) {
    w.Blob(data);
  }
  CarriedLinks carry;
  if (want_reply) {
    carry.push_back(ctx.MakeLink(kLinkReply));
  }
  (void)ctx.Send(disk_slot_, write ? kDiskWrite : kDiskRead, w.Take(), std::move(carry));
}

void BufferManagerProgram::HandleRead(Context& ctx, const Message& msg) {
  ByteReader r(msg.payload);
  const std::uint64_t cookie = r.U64();
  const std::uint32_t sector = r.U32();

  auto it = cache_.find(sector);
  if (it != cache_.end()) {
    ++hits_;
    Touch(sector);
    ByteWriter w;
    w.U64(cookie);
    w.U8(static_cast<std::uint8_t>(StatusCode::kOk));
    w.Blob(it->second.data);
    (void)ctx.Reply(msg, kBufReadReply, w.Take());
    return;
  }

  ++misses_;
  Waiter waiter;
  waiter.cookie = cookie;
  if (!msg.carried_links.empty()) {
    waiter.reply = msg.carried_links[0];
  }
  auto& waiters = pending_reads_[sector];
  waiters.push_back(std::move(waiter));
  if (waiters.size() == 1) {
    // First miss on this sector: one coalesced disk read, cookie = sector.
    SendToDisk(ctx, /*write=*/false, sector, sector, {}, /*want_reply=*/true);
  }
}

void BufferManagerProgram::HandleWrite(Context& ctx, const Message& msg) {
  ByteReader r(msg.payload);
  const std::uint64_t cookie = r.U64();
  const std::uint32_t sector = r.U32();
  Bytes data = r.Blob();
  data.resize(kFsBlockSize, 0);

  CacheEntry entry;
  entry.data = std::move(data);
  entry.dirty = true;
  InsertAndMaybeEvict(ctx, sector, std::move(entry));

  ByteWriter w;
  w.U64(cookie);
  w.U8(static_cast<std::uint8_t>(StatusCode::kOk));
  (void)ctx.Reply(msg, kBufWriteReply, w.Take());
}

void BufferManagerProgram::HandleDiskReadReply(Context& ctx, const Message& msg) {
  ByteReader r(msg.payload);
  const std::uint64_t sector64 = r.U64();  // we used the sector as the cookie
  const auto status = static_cast<StatusCode>(r.U8());
  Bytes data = r.Blob();
  const auto sector = static_cast<std::uint32_t>(sector64);

  auto waiters_it = pending_reads_.find(sector);
  std::vector<Waiter> waiters;
  if (waiters_it != pending_reads_.end()) {
    waiters = std::move(waiters_it->second);
    pending_reads_.erase(waiters_it);
  }

  if (status == StatusCode::kOk) {
    CacheEntry entry;
    entry.data = data;
    entry.dirty = false;
    InsertAndMaybeEvict(ctx, sector, std::move(entry));
  }

  for (const Waiter& waiter : waiters) {
    if (!waiter.reply.has_value()) {
      continue;
    }
    ByteWriter w;
    w.U64(waiter.cookie);
    w.U8(static_cast<std::uint8_t>(status));
    w.Blob(data);
    (void)ctx.SendOnLink(*waiter.reply, kBufReadReply, w.Take());
  }
}

void BufferManagerProgram::InsertAndMaybeEvict(Context& ctx, std::uint32_t sector,
                                               CacheEntry entry) {
  cache_[sector] = std::move(entry);
  Touch(sector);
  while (cache_.size() > config_.capacity_sectors && !lru_.empty()) {
    const std::uint32_t victim = lru_.back();
    lru_.pop_back();
    auto it = cache_.find(victim);
    if (it == cache_.end()) {
      continue;
    }
    if (it->second.dirty) {
      // Write-back on eviction; no reply needed.
      SendToDisk(ctx, /*write=*/true, next_cookie_++, victim, it->second.data,
                 /*want_reply=*/false);
    }
    cache_.erase(it);
  }
}

Bytes BufferManagerProgram::SaveState() const {
  ByteWriter w;
  w.U32(static_cast<std::uint32_t>(cache_.size()));
  for (const auto& [sector, entry] : cache_) {
    w.U32(sector);
    w.U8(entry.dirty ? 1 : 0);
    w.Blob(entry.data);
  }
  w.U32(static_cast<std::uint32_t>(lru_.size()));
  for (std::uint32_t sector : lru_) {
    w.U32(sector);
  }
  w.U32(static_cast<std::uint32_t>(pending_reads_.size()));
  for (const auto& [sector, waiters] : pending_reads_) {
    w.U32(sector);
    w.U32(static_cast<std::uint32_t>(waiters.size()));
    for (const Waiter& waiter : waiters) {
      w.U64(waiter.cookie);
      w.U8(waiter.reply.has_value() ? 1 : 0);
      if (waiter.reply.has_value()) {
        waiter.reply->Serialize(w);
      }
    }
  }
  w.U32(disk_slot_);
  w.U64(next_cookie_);
  w.I64(hits_);
  w.I64(misses_);
  return w.Take();
}

void BufferManagerProgram::RestoreState(const Bytes& state) {
  ByteReader r(state);
  cache_.clear();
  const std::uint32_t n_cache = r.U32();
  for (std::uint32_t i = 0; i < n_cache && r.ok(); ++i) {
    const std::uint32_t sector = r.U32();
    CacheEntry entry;
    entry.dirty = r.U8() != 0;
    entry.data = r.Blob();
    cache_[sector] = std::move(entry);
  }
  lru_.clear();
  const std::uint32_t n_lru = r.U32();
  for (std::uint32_t i = 0; i < n_lru && r.ok(); ++i) {
    lru_.push_back(r.U32());
  }
  pending_reads_.clear();
  const std::uint32_t n_pending = r.U32();
  for (std::uint32_t i = 0; i < n_pending && r.ok(); ++i) {
    const std::uint32_t sector = r.U32();
    const std::uint32_t n_waiters = r.U32();
    std::vector<Waiter> waiters;
    for (std::uint32_t j = 0; j < n_waiters && r.ok(); ++j) {
      Waiter waiter;
      waiter.cookie = r.U64();
      if (r.U8() != 0) {
        waiter.reply = Link::Deserialize(r);
      }
      waiters.push_back(std::move(waiter));
    }
    pending_reads_[sector] = std::move(waiters);
  }
  disk_slot_ = r.U32();
  next_cookie_ = r.U64();
  hits_ = r.I64();
  misses_ = r.I64();
}

void RegisterBufferManagerProgram() {
  static const bool registered = [] {
    ProgramRegistry::Instance().Register(
        "fs.buffers", [] { return std::make_unique<BufferManagerProgram>(); });
    return true;
  }();
  (void)registered;
}

}  // namespace demos
