#include "src/sys/memory_scheduler.h"

#include <memory>

#include "src/kernel/load_report.h"

namespace demos {

void MemorySchedulerProgram::OnMessage(Context& ctx, const Message& msg) {
  switch (TypeCode(msg.type)) {
    case TypeCode(kMsReport): {
      Result<LoadReport> report = LoadReport::Decode(msg.payload);
      if (report.ok()) {
        memory_[report->machine] = MachineMemory{report->memory_used, report->memory_limit};
      }
      return;
    }
    case TypeCode(kMsQuery): {
      ByteReader r(msg.payload);
      const MachineId machine = r.U16();
      ByteWriter w;
      auto it = memory_.find(machine);
      if (it == memory_.end()) {
        w.U8(static_cast<std::uint8_t>(StatusCode::kNotFound));
        w.U64(0);
        w.U64(0);
      } else {
        w.U8(static_cast<std::uint8_t>(StatusCode::kOk));
        w.U64(it->second.used);
        w.U64(it->second.limit);
      }
      (void)ctx.Reply(msg, kMsQueryReply, w.Take());
      return;
    }
    case TypeCode(kMsFindSpace): {
      ByteReader r(msg.payload);
      const std::uint64_t bytes = r.U64();
      MachineId best = kNoMachine;
      std::uint64_t best_free = 0;
      for (const auto& [machine, memory] : memory_) {
        const std::uint64_t free = memory.limit > memory.used ? memory.limit - memory.used : 0;
        if (free >= bytes && free > best_free) {
          best = machine;
          best_free = free;
        }
      }
      ByteWriter w;
      w.U8(static_cast<std::uint8_t>(best == kNoMachine ? StatusCode::kExhausted
                                                        : StatusCode::kOk));
      w.U16(best);
      (void)ctx.Reply(msg, kMsFindSpaceReply, w.Take());
      return;
    }
    default:
      return;
  }
}

Bytes MemorySchedulerProgram::SaveState() const {
  ByteWriter w;
  w.U32(static_cast<std::uint32_t>(memory_.size()));
  for (const auto& [machine, memory] : memory_) {
    w.U16(machine);
    w.U64(memory.used);
    w.U64(memory.limit);
  }
  return w.Take();
}

void MemorySchedulerProgram::RestoreState(const Bytes& state) {
  memory_.clear();
  ByteReader r(state);
  const std::uint32_t n = r.U32();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    const MachineId machine = r.U16();
    MachineMemory memory;
    memory.used = r.U64();
    memory.limit = r.U64();
    memory_[machine] = memory;
  }
}

void RegisterMemorySchedulerProgram() {
  static const bool registered = [] {
    ProgramRegistry::Instance().Register(
        "memory_scheduler", [] { return std::make_unique<MemorySchedulerProgram>(); });
    return true;
  }();
  (void)registered;
}

}  // namespace demos
