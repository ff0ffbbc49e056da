#include "src/sys/fs/directory_service.h"

#include <memory>

namespace demos {

DirectoryServiceProgram::FileMeta* DirectoryServiceProgram::FindById(std::uint32_t id) {
  for (auto& [name, meta] : files_) {
    if (meta.id == id) {
      return &meta;
    }
  }
  return nullptr;
}

void DirectoryServiceProgram::OnMessage(Context& ctx, const Message& msg) {
  switch (TypeCode(msg.type)) {
    case TypeCode(kDirLookup): {
      ByteReader r(msg.payload);
      const std::uint64_t cookie = r.U64();
      const std::string name = r.Str();
      const bool create = r.U8() != 0;

      auto it = files_.find(name);
      if (it == files_.end() && create) {
        FileMeta meta;
        meta.id = next_file_id_++;
        it = files_.emplace(name, std::move(meta)).first;
      }
      ByteWriter w;
      w.U64(cookie);
      if (it == files_.end()) {
        w.U8(static_cast<std::uint8_t>(StatusCode::kNotFound));
        w.U32(0);
        w.U32(0);
      } else {
        w.U8(static_cast<std::uint8_t>(StatusCode::kOk));
        w.U32(it->second.id);
        w.U32(it->second.size);
      }
      (void)ctx.Reply(msg, kDirReply, w.Take());
      return;
    }
    case TypeCode(kDirGetBlocks): {
      ByteReader r(msg.payload);
      const std::uint64_t cookie = r.U64();
      const std::uint32_t file_id = r.U32();
      const std::uint32_t first = r.U32();
      const std::uint32_t count = r.U32();
      const bool allocate = r.U8() != 0;

      FileMeta* meta = FindById(file_id);
      ByteWriter w;
      w.U64(cookie);
      if (meta == nullptr || first + count > kFsMaxBlocksPerFile) {
        w.U8(static_cast<std::uint8_t>(meta == nullptr ? StatusCode::kNotFound
                                                       : StatusCode::kInvalidArgument));
        w.U32(0);
      } else {
        while (allocate && meta->sectors.size() < first + count) {
          meta->sectors.push_back(next_sector_++);
        }
        w.U8(static_cast<std::uint8_t>(StatusCode::kOk));
        const std::uint32_t available =
            meta->sectors.size() > first
                ? std::min<std::uint32_t>(count,
                                          static_cast<std::uint32_t>(meta->sectors.size()) - first)
                : 0;
        w.U32(available);
        for (std::uint32_t i = 0; i < available; ++i) {
          w.U32(meta->sectors[first + i]);
        }
      }
      (void)ctx.Reply(msg, kDirBlocksReply, w.Take());
      return;
    }
    case TypeCode(kDirSetSize): {
      ByteReader r(msg.payload);
      const std::uint64_t cookie = r.U64();
      const std::uint32_t file_id = r.U32();
      const std::uint32_t size = r.U32();
      FileMeta* meta = FindById(file_id);
      if (meta != nullptr && size > meta->size) {
        meta->size = size;
      }
      ByteWriter w;
      w.U64(cookie);
      w.U8(static_cast<std::uint8_t>(meta != nullptr ? StatusCode::kOk
                                                     : StatusCode::kNotFound));
      (void)ctx.Reply(msg, kDirSizeReply, w.Take());
      return;
    }
    default:
      return;
  }
}

Bytes DirectoryServiceProgram::SaveState() const {
  ByteWriter w;
  w.U32(static_cast<std::uint32_t>(files_.size()));
  for (const auto& [name, meta] : files_) {
    w.Str(name);
    w.U32(meta.id);
    w.U32(meta.size);
    w.U32(static_cast<std::uint32_t>(meta.sectors.size()));
    for (std::uint32_t sector : meta.sectors) {
      w.U32(sector);
    }
  }
  w.U32(next_file_id_);
  w.U32(next_sector_);
  return w.Take();
}

void DirectoryServiceProgram::RestoreState(const Bytes& state) {
  ByteReader r(state);
  files_.clear();
  const std::uint32_t n = r.U32();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    const std::string name = r.Str();
    FileMeta meta;
    meta.id = r.U32();
    meta.size = r.U32();
    const std::uint32_t n_sectors = r.U32();
    for (std::uint32_t j = 0; j < n_sectors && r.ok(); ++j) {
      meta.sectors.push_back(r.U32());
    }
    files_[name] = std::move(meta);
  }
  next_file_id_ = r.U32();
  next_sector_ = r.U32();
}

void RegisterDirectoryServiceProgram() {
  static const bool registered = [] {
    ProgramRegistry::Instance().Register(
        "fs.directory", [] { return std::make_unique<DirectoryServiceProgram>(); });
    return true;
  }();
  (void)registered;
}

}  // namespace demos
