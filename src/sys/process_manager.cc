#include "src/sys/process_manager.h"

#include "src/base/log.h"
#include "src/kernel/load_report.h"

namespace demos {

ProcessManagerConfig& DefaultProcessManagerConfig() {
  static ProcessManagerConfig config;
  return config;
}

ProcessManagerProgram::ProcessManagerProgram() : config_(DefaultProcessManagerConfig()) {
  policy_ = PolicyRegistry::Instance().Create(config_.policy);
}

void ProcessManagerProgram::OnStart(Context& ctx) {
  // The null policy never decides anything; don't keep the cluster awake.
  if (policy_ != nullptr && config_.policy != "null" && config_.policy_interval_us > 0) {
    ctx.SetTimer(config_.policy_interval_us, kPmPolicyTickCookie);
  }
}

void ProcessManagerProgram::OnTimer(Context& ctx, std::uint64_t cookie) {
  if (cookie != kPmPolicyTickCookie) {
    return;
  }
  RunPolicy(ctx);
  ctx.SetTimer(config_.policy_interval_us, kPmPolicyTickCookie);
}

void ProcessManagerProgram::OnMessage(Context& ctx, const Message& msg) {
  switch (TypeCode(msg.type)) {
    case TypeCode(MsgType::kLoadReport): {
      Result<LoadReport> report = LoadReport::Decode(msg.payload);
      if (report.ok()) {
        loads_.Apply(*report, ctx.now());
        // "The process and memory managers handle all the high-level
        // scheduling decisions" (Sec. 2.3): share the raw report.  The payload
        // is a PayloadRef, so the relay reuses the received buffer.
        if (memory_scheduler_slot_ != kNoLink) {
          (void)ctx.Send(memory_scheduler_slot_, kMsReport, msg.payload);
        }
      }
      return;
    }
    case TypeCode(kPmCreate):
      HandleCreate(ctx, msg);
      return;
    case TypeCode(MsgType::kCreateProcessReply):
      HandleCreateReply(ctx, msg);
      return;
    case TypeCode(kPmMigrate):
      HandleMigrate(ctx, msg);
      return;
    case TypeCode(MsgType::kMigrateDone):
      HandleMigrateDone(ctx, msg);
      return;
    case TypeCode(kPmEvacuate):
      HandleEvacuate(ctx, msg);
      return;
    case TypeCode(kPmPin): {
      ByteReader r(msg.payload);
      pinned_.insert(r.Pid());
      return;
    }
    case TypeCode(kPmAttachMs):
      if (!msg.carried_links.empty()) {
        memory_scheduler_slot_ = ctx.AddLink(msg.carried_links[0]);
      }
      return;
    case TypeCode(kPmStats): {
      ByteWriter w;
      w.U32(static_cast<std::uint32_t>(inventory_.size()));
      w.U32(static_cast<std::uint32_t>(migrations_started_));
      (void)ctx.Reply(msg, kPmStatsReply, w.Take());
      return;
    }
    default:
      return;
  }
}

MachineId ProcessManagerProgram::ChooseMachine(MachineId requested) const {
  if (requested != kNoMachine) {
    return requested;
  }
  // Least-utilized machine with fresh data; fall back to round-robin over
  // whatever machines we have heard from (or machine 0).
  std::vector<MachineLoad> sorted = loads_.ByUtilization();
  if (!sorted.empty()) {
    return sorted.front().machine;
  }
  return 0;
}

void ProcessManagerProgram::HandleCreate(Context& ctx, const Message& msg) {
  ByteReader r(msg.payload);
  const std::uint64_t requester_cookie = r.U64();
  const std::string program = r.Str();
  const MachineId requested = r.U16();
  const std::uint32_t code = r.U32();
  const std::uint32_t data = r.U32();
  const std::uint32_t stack = r.U32();

  const MachineId machine = ChooseMachine(requested);
  const std::uint64_t cookie = next_cookie_++;
  PendingCreate pending;
  pending.requester_cookie = requester_cookie;
  pending.program = program;
  if (!msg.carried_links.empty()) {
    pending.reply = msg.carried_links[0];
  }
  pending_creates_[cookie] = std::move(pending);

  ByteWriter w;
  w.Str(program);
  w.U32(code);
  w.U32(data);
  w.U32(stack);
  w.U64(cookie);
  Link self_reply = ctx.MakeLink(kLinkReply);
  (void)ctx.SendOnLink(Link{KernelAddress(machine), kLinkNone, 0, 0}, MsgType::kCreateProcess,
                       w.Take(), {self_reply});
}

void ProcessManagerProgram::HandleCreateReply(Context& ctx, const Message& msg) {
  ByteReader r(msg.payload);
  const std::uint64_t cookie = r.U64();
  const auto status = static_cast<StatusCode>(r.U8());
  const ProcessAddress created = r.Address();

  auto it = pending_creates_.find(cookie);
  if (it == pending_creates_.end()) {
    return;
  }
  PendingCreate pending = std::move(it->second);
  pending_creates_.erase(it);

  if (status == StatusCode::kOk) {
    inventory_[created.pid] = ManagedProcess{pending.program, created.last_known_machine};
  }
  if (pending.reply.has_value()) {
    ByteWriter w;
    w.U64(pending.requester_cookie);
    w.U8(static_cast<std::uint8_t>(status));
    w.Address(created);
    CarriedLinks carry;
    if (!msg.carried_links.empty()) {
      carry.push_back(msg.carried_links[0]);  // pass the child link onward
    }
    (void)ctx.SendOnLink(*pending.reply, kPmCreateReply, w.Take(), std::move(carry));
  }
}

void ProcessManagerProgram::StartMigrationOf(Context& ctx, const ProcessId& pid, MachineId hint,
                                             MachineId dest) {
  ByteWriter w;
  w.U16(dest);
  w.Address(ctx.self());
  Link victim;
  victim.address = ProcessAddress{hint, pid};
  victim.flags = kLinkDeliverToKernel;
  (void)ctx.SendOnLink(victim, MsgType::kMigrateRequest, w.Take());
  ++migrations_started_;
  DEMOS_LOG(kInfo, "pm") << "migrating " << pid.ToString() << " (on m" << hint << ") to m"
                         << dest;
}

void ProcessManagerProgram::HandleMigrate(Context& ctx, const Message& msg) {
  ByteReader r(msg.payload);
  const ProcessId pid = r.Pid();
  MachineId hint = r.U16();
  const MachineId dest = r.U16();
  if (hint == kNoMachine) {
    auto it = inventory_.find(pid);
    hint = it != inventory_.end() ? it->second.machine : pid.creating_machine;
  }
  if (!msg.carried_links.empty()) {
    pending_migrations_[pid].push_back(msg.carried_links[0]);
  }
  StartMigrationOf(ctx, pid, hint, dest);
}

void ProcessManagerProgram::HandleMigrateDone(Context& ctx, const Message& msg) {
  ByteReader r(msg.payload);
  const ProcessId pid = r.Pid();
  const auto status = static_cast<StatusCode>(r.U8());
  const MachineId final_home = r.U16();

  auto inv = inventory_.find(pid);
  if (inv != inventory_.end() && status == StatusCode::kOk) {
    inv->second.machine = final_home;
  }
  auto it = pending_migrations_.find(pid);
  if (it == pending_migrations_.end()) {
    return;
  }
  ByteWriter w;
  w.Pid(pid);
  w.U8(static_cast<std::uint8_t>(status));
  w.U16(final_home);
  for (const Link& reply : it->second) {
    (void)ctx.SendOnLink(reply, kPmMigrateReply, w.bytes());
  }
  pending_migrations_.erase(it);
}

void ProcessManagerProgram::HandleEvacuate(Context& ctx, const Message& msg) {
  // "Working processes may be migrated from a dying processor (like rats
  // leaving a sinking ship) before it completely fails" (Sec. 1).
  ByteReader r(msg.payload);
  const MachineId dying = r.U16();
  std::vector<MachineLoad> sorted = loads_.ByUtilization();
  for (const auto& [pid, managed] : inventory_) {
    if (managed.machine != dying || pinned_.count(pid) != 0) {
      continue;
    }
    MachineId dest = kNoMachine;
    for (const MachineLoad& candidate : sorted) {
      if (candidate.machine != dying) {
        dest = candidate.machine;
        break;
      }
    }
    if (dest == kNoMachine) {
      dest = dying == 0 ? 1 : 0;  // no load data yet; any other machine
    }
    StartMigrationOf(ctx, pid, dying, dest);
  }
}

void ProcessManagerProgram::RunPolicy(Context& ctx) {
  loads_.ExpireStale(ctx.now() > 2'000'000 ? ctx.now() - 2'000'000 : 0);
  auto movable = [this](const ProcessLoad& process) {
    return pinned_.count(process.pid) == 0 && !IsKernelPid(process.pid);
  };
  for (const MigrationDecision& decision : policy_->Decide(ctx.now(), loads_, movable)) {
    StartMigrationOf(ctx, decision.pid, decision.from, decision.to);
  }
}

Bytes ProcessManagerProgram::SaveState() const {
  ByteWriter w;
  w.Str(config_.policy);
  w.U64(config_.policy_interval_us);
  w.U32(static_cast<std::uint32_t>(inventory_.size()));
  for (const auto& [pid, managed] : inventory_) {
    w.Pid(pid);
    w.Str(managed.program);
    w.U16(managed.machine);
  }
  w.U32(static_cast<std::uint32_t>(pinned_.size()));
  for (const ProcessId& pid : pinned_) {
    w.Pid(pid);
  }
  w.U32(memory_scheduler_slot_);
  w.U64(next_cookie_);
  w.I64(migrations_started_);
  return w.Take();
}

void ProcessManagerProgram::RestoreState(const Bytes& state) {
  ByteReader r(state);
  config_.policy = r.Str();
  config_.policy_interval_us = r.U64();
  policy_ = PolicyRegistry::Instance().Create(config_.policy);
  inventory_.clear();
  const std::uint32_t n = r.U32();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    const ProcessId pid = r.Pid();
    ManagedProcess managed;
    managed.program = r.Str();
    managed.machine = r.U16();
    inventory_[pid] = std::move(managed);
  }
  pinned_.clear();
  const std::uint32_t n_pinned = r.U32();
  for (std::uint32_t i = 0; i < n_pinned && r.ok(); ++i) {
    pinned_.insert(r.Pid());
  }
  memory_scheduler_slot_ = r.U32();
  next_cookie_ = r.U64();
  migrations_started_ = r.I64();
}

void RegisterProcessManagerProgram() {
  RegisterStandardPolicies();
  static const bool registered = [] {
    ProgramRegistry::Instance().Register(
        "process_manager", [] { return std::make_unique<ProcessManagerProgram>(); });
    return true;
  }();
  (void)registered;
}

}  // namespace demos
