// Kernel core: routing, scheduling, bulk data movement, kernel services.
// Migration and forwarding logic (Sec. 3-5) lives in migration.cc.

#include "src/kernel/kernel.h"

#include <algorithm>
#include <utility>

#include "src/base/log.h"
#include "src/kernel/context_impl.h"
#include "src/kernel/load_report.h"

namespace demos {

Kernel::Kernel(MachineId machine, EventQueue* queue, Transport* transport, KernelConfig config)
    : machine_(machine),
      queue_(*queue),
      transport_(transport),
      config_(config),
      rng_(config.seed ^ (0x9E3779B9ull * (machine + 1))),
      tracer_(machine) {
  transport_->Attach(machine_, [this](MachineId src, PayloadRef wire) {
    OnWireDelivery(src, std::move(wire));
  });
}

Kernel::~Kernel() = default;

// ---------------------------------------------------------------------------
// Process creation and exit.
// ---------------------------------------------------------------------------

Result<ProcessAddress> Kernel::SpawnProcess(const std::string& program_name,
                                            std::uint32_t code_size, std::uint32_t data_size,
                                            std::uint32_t stack_size) {
  std::unique_ptr<Program> program = ProgramRegistry::Instance().Create(program_name);
  if (program == nullptr) {
    return Result<ProcessAddress>(NotFoundError("no registered program '" + program_name + "'"));
  }

  auto record = std::make_unique<ProcessRecord>();
  record->pid = ProcessId{machine_, next_local_id_++};
  record->memory = MemoryImage::Create(program_name, code_size, data_size, stack_size);
  record->program = std::move(program);
  record->created_at = queue_.Now();
  record->state = ExecState::kWaiting;
  // Plausible dispatch info: entry point at the code base, stack pointer at
  // the top of the stack segment, register file seeded deterministically.
  record->dispatch.pc = 0x1000;
  record->dispatch.sp = 0x1000 + record->memory.code_size() + record->memory.data_size() +
                        record->memory.stack_size();
  for (std::uint16_t& reg : record->dispatch.registers) {
    reg = static_cast<std::uint16_t>(rng_.Next());
  }
  for (std::uint8_t& b : record->kernel_context) {
    b = static_cast<std::uint8_t>(rng_.Next());
  }

  const std::uint64_t footprint = record->memory.TotalSize();
  if (memory_used_ + footprint > config_.memory_limit_bytes) {
    return Result<ProcessAddress>(
        ExhaustedError("machine m" + std::to_string(machine_) + " out of memory"));
  }
  memory_used_ += footprint;

  ProcessRecord* raw = processes_.Insert(std::move(record));
  UpdateLocation(raw->pid, machine_, 0);
  if (switchboard_.valid()) {
    Link to_switchboard;
    to_switchboard.address = switchboard_;
    raw->links.Insert(to_switchboard);  // slot 0: the standard switchboard link
  }
  StartProgram(*raw);
  return ProcessAddress{machine_, raw->pid};
}

void Kernel::StartProgram(ProcessRecord& record) {
  const ProcessId pid = record.pid;
  queue_.After(config_.dispatch_overhead_us, [this, pid]() {
    ProcessRecord* rec = processes_.Find(pid);
    if (rec == nullptr || rec->started || rec->state == ExecState::kExited) {
      return;
    }
    rec->started = true;
    RunHandler(*rec, [rec](Context& ctx) { rec->program->OnStart(ctx); });
  });
}

bool Kernel::UpdateLocation(const ProcessId& pid, MachineId where, std::uint64_t version) {
  LocationEntry& entry = location_registry_[pid];
  const bool advanced =
      version > entry.version || (version == entry.version && entry.where != where);
  if (advanced) {
    entry.where = where;
    entry.version = version;
    // updated_at moves only on a real advance: duplicate rumors (gossip
    // anti-entropy echoes the same triple for a while) must not keep a
    // tombstone eternally young, or the watermark GC never fires.
    entry.updated_at = queue_.Now();
  }
  return advanced;
}

void Kernel::FinalizeExit(const ProcessId& pid) {
  ProcessRecord* record = processes_.Find(pid);
  if (record == nullptr) {
    return;
  }
  memory_used_ -= std::min<std::uint64_t>(memory_used_, record->memory.TotalSize());

  // Retire the home registry entry so locate fallbacks report death promptly.
  // Tombstone rather than erase: a delayed kLocationRegister from an earlier
  // migration must not re-create a stale entry for a dead pid.  The tombstone
  // is also rumored (NoteLocationAdvance) so peers learn of the death even if
  // the creating machine never comes back.
  NoteLocationAdvance(pid, kNoMachine, ~std::uint64_t{0});
  if (pid.creating_machine != machine_) {
    ByteWriter w;
    w.Pid(pid);
    w.U16(kNoMachine);
    w.U64(~std::uint64_t{0});  // death outranks any in-flight registration
    SendFromKernel(KernelAddress(pid.creating_machine), MsgType::kLocationRegister, w.Take());
  }

  if (config_.forwarding_gc == KernelConfig::ForwardingGc::kOnProcessDeath) {
    // Follow the backward pointers along the migration path (Sec. 4) and
    // retire every forwarding address left for this process.
    ByteWriter w;
    w.Pid(pid);
    const PayloadRef cleared(w.Take());  // one buffer, shared by every clear
    for (MachineId m : record->migration_history) {
      Message clear;
      clear.sender = kernel_address();
      clear.receiver = KernelAddress(m);
      clear.type = MsgType::kForwardingClear;
      clear.payload = cleared;
      Transmit(std::move(clear));
    }
  }

  FlushPushAcksFor(pid);
  processes_.Erase(pid);
}

// ---------------------------------------------------------------------------
// Message system: transmit and route (Sec. 2.1, 4).
// ---------------------------------------------------------------------------

void Kernel::Transmit(Message msg) {
  stats_.Add(StatId::kMsgsSent);
  stats_.Add(StatId::kWireBytesSent, static_cast<std::int64_t>(msg.WireSize()));
  if (IsMigrationAdminType(msg.type)) {
    stats_.Add(StatId::kAdminMsgs);
    stats_.Add(StatId::kAdminBytes, static_cast<std::int64_t>(msg.payload.size()));
    stats_.Record("admin_payload_bytes", msg.payload.size());
  }
  if (tracer_.enabled()) {
    // First transmission stamps the lifecycle id; forwarded and bounced
    // messages keep the id they were born with.
    if (msg.trace_id == 0) {
      msg.trace_id = tracer_.NextMessageTraceId();
      TraceMessage(trace::kMsgSend, msg, static_cast<std::uint64_t>(msg.type), msg.WireSize());
      if (msg.type == MsgType::kMigrateRequest) {
        // Step 1 of Sec. 3.1 starts here, on the requester's kernel.
        TraceMigration(trace::kRequestSent, msg.receiver.pid,
                       static_cast<std::uint64_t>(msg.receiver.last_known_machine));
      }
      if (observer_ != nullptr) {
        observer_->OnMessageSend(machine_, msg);
      }
    }
  }
  const MachineId dst = msg.receiver.last_known_machine;
  // Frame() reuses the frame the message arrived in (forwarding hops and
  // pending-queue re-sends patch the receiver machine in place); only
  // locally-built messages are encoded here.
  transport_->Send(machine_, dst, msg.Frame());
}

void Kernel::SendFromKernel(ProcessAddress to, MsgType type, PayloadRef payload,
                            std::vector<Link> carry, std::uint8_t flags) {
  Message msg;
  msg.sender = kernel_address();
  msg.receiver = to;
  msg.type = type;
  msg.flags = flags;
  msg.payload = std::move(payload);
  msg.carried_links = std::move(carry);
  Transmit(std::move(msg));
}

void Kernel::SendAdmin(const ProcessAddress& to, MsgType type, Bytes payload) {
  Message msg;
  msg.sender = kernel_address();
  msg.receiver = to;
  msg.type = type;
  msg.payload = std::move(payload);
  Transmit(std::move(msg));
}

void Kernel::SetHalted(bool halted) {
  halted_ = halted;
  if (!halted && !parked_while_halted_.empty()) {
    // Revive: replay what arrived during the outage, in arrival order.  The
    // replay itself may re-park (a handler could halt us again), hence the
    // swap rather than iterating the member.
    std::vector<std::pair<MachineId, PayloadRef>> parked;
    parked.swap(parked_while_halted_);
    for (auto& [src, wire] : parked) {
      OnWireDelivery(src, std::move(wire));
    }
  }
  if (!halted) {
    // Any locate probe chain that fired during the outage died silently
    // (LocateRetryFired drops while halted), which would leave its parked
    // messages orphaned forever.  Restart a fresh chain per parked pid.
    ReprobeParkedLocates();
  }
}

void Kernel::OnWireDelivery(MachineId wire_src, PayloadRef wire) {
  if (halted_) {
    // Crashed: by default the wire falls on deaf ears (the reliable layer
    // retransmits).  Transports with no retransmission -- the parallel
    // engine's ShardRouter -- park the frames instead; SetHalted(false)
    // replays them, modelling the published-communications guarantee that a
    // message survives a receiver outage.
    if (config_.park_wire_when_halted) {
      parked_while_halted_.emplace_back(wire_src, std::move(wire));
    }
    return;
  }
  // Hearing from a peer proves it alive: drop any suspicion immediately
  // rather than waiting for the backoff to expire.
  if (!suspects_.empty()) {
    suspects_.erase(wire_src);
  }
  NoteKnownPeer(wire_src);  // gossip / locate-probe candidate
  Result<Message> msg = Message::Deserialize(std::move(wire));
  if (!msg.ok()) {
    DEMOS_LOG(kError, "kernel") << "m" << machine_ << ": malformed wire message from m"
                                << wire_src << ": " << msg.status().message();
    return;
  }
  RouteIncoming(std::move(msg).value(), wire_src);
}

void Kernel::RouteIncoming(Message msg, MachineId wire_src) {
  // Amortized addressing-state sweep: TTL expiry, epoch reclamation of
  // forwarding records, and registry-tombstone GC are all lazy (checked when
  // traffic flows), which keeps them off any timer and free at quiescence.
  if (++routes_since_sweep_ >= 64) {
    routes_since_sweep_ = 0;
    SweepAddressingState();
  }
  // Deferred gossip: rumors that were rate-limited at note time ride the next
  // routed message once the flush interval has passed.
  if (!pending_rumors_.empty() &&
      queue_.Now() - last_gossip_flush_ >= config_.gossip_interval_us) {
    FlushGossip();
  }

  if (IsKernelPid(msg.receiver.pid)) {
    HandleKernelMessage(std::move(msg), wire_src);
    return;
  }

  auto* entry = processes_.FindEntry(msg.receiver.pid);
  if (entry == nullptr) {
    HandleAbsentReceiver(std::move(msg), wire_src);
    return;
  }
  if (entry->IsForwarding()) {
    if (config_.forwarding_gc == KernelConfig::ForwardingGc::kExpireAfterTtl &&
        queue_.Now() - entry->installed_at > config_.forwarding_ttl_us) {
      // TTL garbage collection (Sec. 4 future work): drop the aged address
      // and let the locate fallback below find the process.
      stats_.Add(StatId::kForwardingExpired);
      DropForwardingMeta(msg.receiver.pid);
      processes_.Erase(msg.receiver.pid);
      HandleAbsentReceiver(std::move(msg), wire_src);
      return;
    }
    ForwardThroughAddress(std::move(msg), entry->forward_to);
    return;
  }

  ProcessRecord& record = *entry->process;
  if (record.state == ExecState::kInMigration) {
    // Held: "the message is held and forwarded for delivery when normal
    // message receiving can continue" (Sec. 2.2).  This applies to
    // DELIVERTOKERNEL control messages as well.
    EnqueueLocal(record, std::move(msg));
    return;
  }
  if (record.state == ExecState::kExited) {
    HandleAbsentReceiver(std::move(msg), wire_src);
    return;
  }

  if (msg.deliver_to_kernel()) {
    stats_.Add(StatId::kDeliverToKernelMsgs);
    HandleControlMessage(record, std::move(msg));
    return;
  }
  DeliverToProcess(record, std::move(msg));
}

void Kernel::EnqueueLocal(ProcessRecord& record, Message msg) {
  record.queue.push_back(std::move(msg));
}

void Kernel::DeliverToProcess(ProcessRecord& record, Message msg) {
  if (msg.type == MsgType::kNotDeliverable &&
      (config_.gossip_enabled || config_.forwarding_reclaim_enabled)) {
    // A death verdict is reaching a local process: negative-cache it so the
    // next send to the same pid is refused at the source instead of re-running
    // the bounce/locate cycle.  The marker (kNoMachine, version 0) is weaker
    // than a real tombstone -- any genuine location news overrides it -- and
    // it ages out with the rest of the epoch state.
    ByteReader r(msg.payload);
    (void)r.U16();  // original message type
    const ProcessId dead = r.Pid();
    // The verdict outranks a live hint here: the routing layer only reports
    // kNotDeliverable after that hint (and a full locate) failed.  A hard
    // tombstone already says more, so leave it alone.
    auto rit = location_registry_.find(dead);
    const bool hard_tombstone = rit != location_registry_.end() &&
                                rit->second.where == kNoMachine &&
                                rit->second.version == ~std::uint64_t{0};
    if (r.ok() && dead.valid() && processes_.Find(dead) == nullptr && !hard_tombstone) {
      LocationEntry& entry = location_registry_[dead];
      entry.where = kNoMachine;
      entry.version = 0;
      entry.updated_at = queue_.Now();
    }
  }
  stats_.Add(StatId::kMsgsDelivered);
  if (msg.via_count >= 2) {
    // The message crossed two or more forwarding records to get here: tell
    // every intermediate machine to re-point straight at us (Sec. 4 chains
    // collapse to length one under traffic).
    EmitChainCollapse(msg);
  }
  TraceMessage(trace::kMsgDeliver, msg, msg.hop_count);
  EnqueueLocal(record, std::move(msg));
  MaybeScheduleDispatch(record);
}

void Kernel::HandleKernelMessage(Message msg, MachineId wire_src) {
  switch (msg.type) {
    case MsgType::kMigrateOffer:
      HandleMigrateOffer(msg);
      return;
    case MsgType::kMigrateAccept:
      HandleMigrateAccept(msg);
      return;
    case MsgType::kMigrateReject:
      HandleMigrateReject(msg);
      return;
    case MsgType::kMoveDataReq:
      HandleMoveDataReq(msg);
      return;
    case MsgType::kTransferComplete:
      HandleTransferComplete(msg);
      return;
    case MsgType::kCleanupDone:
      HandleCleanupDone(msg);
      return;
    case MsgType::kMigrateCancel:
      HandleMigrateCancel(msg);
      return;
    case MsgType::kMoveDataPacket:
      HandleDataPacket(std::move(msg));
      return;
    case MsgType::kMoveDataAck:
      HandleDataAck(msg);
      return;
    case MsgType::kNotDeliverable:
      HandleNotDeliverable(std::move(msg), wire_src);
      return;
    case MsgType::kLocateReq:
      HandleLocateReq(msg);
      return;
    case MsgType::kLocateResp:
      HandleLocateResp(msg);
      return;
    case MsgType::kLocationRegister:
      HandleLocationRegister(msg);
      return;
    case MsgType::kForwardingClear:
      HandleForwardingClear(msg);
      return;
    case MsgType::kChainCollapse:
      HandleChainCollapse(msg);
      return;
    case MsgType::kLinkUpdateAck:
      HandleLinkUpdateAck(msg);
      return;
    case MsgType::kGossip:
      HandleGossip(msg);
      return;
    case MsgType::kCreateProcess:
      HandleCreateProcess(msg);
      return;
    case MsgType::kMigrateDone: {
      ByteReader r(msg.payload);
      MigrateDoneInfo info;
      info.pid = r.Pid();
      info.status = static_cast<StatusCode>(r.U8());
      info.final_home = r.U16();
      info.at = queue_.Now();
      migrate_done_log_.push_back(info);
      return;
    }
    default:
      DEMOS_LOG(kWarn, "kernel") << "m" << machine_ << ": unexpected kernel message "
                                 << msg.ToString();
  }
}

void Kernel::HandleControlMessage(ProcessRecord& record, Message msg) {
  switch (msg.type) {
    case MsgType::kMigrateRequest:
      HandleMigrateRequest(record, msg);
      return;
    case MsgType::kSuspendProcess:
      if (record.state == ExecState::kReady || record.state == ExecState::kWaiting) {
        record.state = ExecState::kSuspended;
      }
      return;
    case MsgType::kResumeProcess:
      if (record.state == ExecState::kSuspended) {
        record.state = ExecState::kWaiting;
        MaybeScheduleDispatch(record);
      }
      return;
    case MsgType::kKillProcess: {
      record.state = ExecState::kExited;
      const ProcessId pid = record.pid;
      queue_.After(0, [this, pid]() { FinalizeExit(pid); });
      return;
    }
    case MsgType::kLinkUpdate:
      HandleLinkUpdate(record, msg);
      return;
    case MsgType::kReadDataArea:
      HandleReadDataArea(record, msg);
      return;
    case MsgType::kMoveDataPacket:
      HandleWritePacket(record, msg);
      return;
    default:
      DEMOS_LOG(kWarn, "kernel") << "m" << machine_ << ": unexpected control message "
                                 << msg.ToString();
  }
}

// ---------------------------------------------------------------------------
// Scheduling and the CPU model.
// ---------------------------------------------------------------------------

std::size_t Kernel::ready_count() const {
  std::size_t n = 0;
  for (const auto& [pid, entry] : processes_.entries()) {
    if (!entry.IsForwarding() &&
        (entry.process->state == ExecState::kReady || !entry.process->queue.empty())) {
      ++n;
    }
  }
  return n;
}

void Kernel::MaybeScheduleDispatch(ProcessRecord& record) {
  if (record.dispatch_scheduled || record.queue.empty()) {
    return;
  }
  if (record.state != ExecState::kReady && record.state != ExecState::kWaiting) {
    return;
  }
  record.state = ExecState::kReady;
  record.dispatch_scheduled = true;
  const SimTime start = std::max(queue_.Now(), cpu_free_at_) + config_.dispatch_overhead_us;
  const ProcessId pid = record.pid;
  queue_.At(start, [this, pid]() { RunDispatch(pid); });
}

void Kernel::RunDispatch(ProcessId pid) {
  ProcessRecord* record = processes_.Find(pid);
  if (record == nullptr) {
    return;
  }
  record->dispatch_scheduled = false;
  if (halted_) {
    return;  // crashed mid-schedule; KickAllProcesses() re-arms on revive
  }
  // kWaiting is runnable too: an aborted migration (or a resume) can demote
  // kReady to kWaiting while this dispatch is already in flight, and its
  // MaybeScheduleDispatch call will have early-returned on dispatch_scheduled
  // -- this event is the only one coming.
  if (record->state != ExecState::kReady && record->state != ExecState::kWaiting) {
    return;  // suspended / migrated / exited since scheduling
  }
  if (record->queue.empty()) {
    record->state = ExecState::kWaiting;
    return;
  }

  Message msg = std::move(record->queue.front());
  record->queue.pop_front();

  // Consumption point: the receiver is about to run its handler for this
  // message.  Timer self-messages (trace id 0) are not part of the message
  // system proper and are not observed.
  if (observer_ != nullptr && msg.trace_id != 0) {
    observer_->OnMessageDeliver(machine_, msg);
  }

  if (msg.deliver_to_kernel()) {
    // A control message that was held in the queue (e.g. during migration)
    // and is executed now that normal receiving has resumed.
    stats_.Add(StatId::kDeliverToKernelMsgs);
    HandleControlMessage(*record, std::move(msg));
    record = processes_.Find(pid);  // control may have frozen/killed it
  } else {
    record->messages_handled++;
    switch (msg.type) {
      case MsgType::kTimerFired: {
        ByteReader r(msg.payload);
        const std::uint64_t cookie = r.U64();
        RunHandler(*record, [record, cookie](Context& ctx) {
          record->program->OnTimer(ctx, cookie);
        });
        break;
      }
      case MsgType::kDataMoveDone: {
        ByteReader r(msg.payload);
        DataMoveResult result;
        result.cookie = r.U64();
        const auto code = static_cast<StatusCode>(r.U8());
        if (code != StatusCode::kOk) {
          result.status = Status(code, "data move failed");
        }
        result.data = r.Blob();
        RunHandler(*record, [record, &result](Context& ctx) {
          record->program->OnDataMoveDone(ctx, result);
        });
        break;
      }
      default:
        RunHandler(*record, [record, &msg](Context& ctx) {
          record->program->OnMessage(ctx, msg);
        });
    }
    record = processes_.Find(pid);
  }

  if (record != nullptr && !record->queue.empty() &&
      (record->state == ExecState::kReady || record->state == ExecState::kWaiting)) {
    record->state = ExecState::kWaiting;  // allow MaybeScheduleDispatch to re-arm
    MaybeScheduleDispatch(*record);
  } else if (record != nullptr && record->state == ExecState::kReady) {
    record->state = ExecState::kWaiting;
  }
}

void Kernel::RunHandler(ProcessRecord& record, const std::function<void(Context&)>& body) {
  KernelContext ctx(this, &record);
  body(ctx);

  const SimDuration cost = config_.default_handler_cpu_us + ctx.charged_cpu();
  record.cpu_used_us += cost;
  cpu_busy_us_ += cost;
  cpu_free_at_ = std::max(queue_.Now(), cpu_free_at_) + cost;
  // Touch the simulated dispatch info so that it evolves as the process runs
  // (the transparency tests check that it travels intact across migration).
  record.dispatch.pc += static_cast<std::uint32_t>(cost);
  record.dispatch.registers[0] =
      static_cast<std::uint16_t>(record.messages_handled & 0xFFFF);

  if (ctx.exit_requested()) {
    record.state = ExecState::kExited;
    const ProcessId pid = record.pid;
    queue_.After(0, [this, pid]() { FinalizeExit(pid); });
  }
}

void Kernel::ArmTimer(ProcessRecord& record, const TimerEntry& entry) {
  const ProcessId pid = record.pid;
  const std::uint64_t generation = record.timer_generation;
  const TimerEntry timer = entry;
  queue_.At(entry.due, [this, pid, generation, timer]() {
    if (halted_) {
      return;  // entry stays in record->timers; re-armed by KickAllProcesses
    }
    ProcessRecord* rec = processes_.Find(pid);
    if (rec == nullptr || rec->timer_generation != generation) {
      return;  // migrated away (destination re-armed its own copy) or exited
    }
    auto it = std::find_if(rec->timers.begin(), rec->timers.end(), [&](const TimerEntry& t) {
      return t.due == timer.due && t.cookie == timer.cookie;
    });
    if (it == rec->timers.end()) {
      return;
    }
    rec->timers.erase(it);
    Message msg;
    msg.sender = kernel_address();
    msg.receiver = ProcessAddress{machine_, pid};
    msg.type = MsgType::kTimerFired;
    ByteWriter w;
    w.U64(timer.cookie);
    msg.payload = w.Take();
    // Local kernel-generated message: enqueue directly (it never crosses the
    // network, and if the process is frozen it is held like any other).
    if (rec->state == ExecState::kInMigration || rec->state == ExecState::kSuspended) {
      EnqueueLocal(*rec, std::move(msg));
    } else {
      DeliverToProcess(*rec, std::move(msg));
    }
  });
}

// ---------------------------------------------------------------------------
// Bulk data movement (Sec. 2.2, 6).
// ---------------------------------------------------------------------------

std::uint32_t Kernel::StreamBytes(const PayloadRef& data, DataPacket prototype,
                                  const ProcessAddress& to, std::uint8_t msg_flags) {
  prototype.streamer = machine_;
  prototype.total = static_cast<std::uint32_t>(data.size());

  const std::size_t chunk_size = std::max<std::size_t>(1, config_.data_packet_bytes);
  std::uint32_t packets = 0;
  std::size_t offset = 0;
  // "The packets are sent to the receiving kernel in a continuous stream"
  // (Sec. 6): everything is handed to the transport at once; the simulated
  // output port serializes them back-to-back.
  do {
    const std::size_t len = std::min(chunk_size, data.size() - offset);
    DataPacket packet = prototype;
    packet.offset = static_cast<std::uint32_t>(offset);
    packet.chunk = data.Slice(offset, len);  // aliases the source buffer
    Message msg;
    msg.sender = kernel_address();
    msg.receiver = to;
    msg.type = MsgType::kMoveDataPacket;
    msg.flags = msg_flags;
    msg.payload = packet.Encode();
    stats_.Add(StatId::kDataPackets);
    stats_.Add(StatId::kDataBytes, static_cast<std::int64_t>(len));
    Transmit(std::move(msg));
    offset += len;
    ++packets;
  } while (offset < data.size());

  OutgoingTransfer& out = outgoing_transfers_[prototype.transfer_id];
  out.packet_count = packets;
  out.total_bytes = data.size();
  return packets;
}

void Kernel::HandleDataPacket(Message msg) {
  Result<DataPacket> decoded = DataPacket::Decode(msg.payload);
  if (!decoded.ok()) {
    DEMOS_LOG(kError, "kernel") << "m" << machine_ << ": " << decoded.status().message();
    return;
  }
  const DataPacket& packet = *decoded;
  // This path handles PULL packets (kernel-addressed).  PUSH packets arrive
  // via HandleControlMessage/HandleWritePacket.
  auto it = incoming_pulls_.find(packet.transfer_id);
  if (it == incoming_pulls_.end()) {
    DEMOS_LOG(kWarn, "kernel") << "m" << machine_ << ": stray pull packet id "
                               << packet.transfer_id;
    return;
  }
  IncomingPull& pull = it->second;
  if (pull.purpose == IncomingPull::Purpose::kMigrationSection) {
    // Each arriving section packet is watchdog progress for the migration.
    auto mit = migration_dests_.find(pull.migrating_pid);
    if (mit != migration_dests_.end()) {
      mit->second.last_progress = queue_.Now();
    }
  }
  if (!pull.sized) {
    pull.buffer.resize(packet.total);
    pull.sized = true;
  }
  if (packet.offset + packet.chunk.size() <= pull.buffer.size()) {
    std::copy(packet.chunk.begin(), packet.chunk.end(),
              pull.buffer.begin() + packet.offset);
    pull.received += static_cast<std::uint32_t>(packet.chunk.size());
  }

  // Batched cumulative acknowledgement (Sec. 6): flush when the window fills
  // or the stream is done, so large pulls cost ~1/window the ack traffic.
  pull.unacked_bytes += static_cast<std::uint32_t>(packet.chunk.size());
  pull.unacked_packets++;
  const bool final_packet = std::uint64_t{packet.offset} + packet.chunk.size() >= packet.total;
  const bool complete = pull.received >= pull.buffer.size();
  if (pull.unacked_packets >= config_.data_window_packets || final_packet || complete) {
    FlushPullAck(packet.transfer_id, pull, packet.streamer);
  }

  if (complete) {
    IncomingPull done = std::move(pull);
    incoming_pulls_.erase(it);
    OnPullComplete(done);
  }
}

void Kernel::FlushPullAck(std::uint32_t transfer_id, IncomingPull& pull, MachineId streamer) {
  if (pull.unacked_packets == 0) {
    return;
  }
  DataAck ack;
  ack.mode = StreamMode::kPull;
  ack.transfer_id = transfer_id;
  ack.covered_bytes = pull.unacked_bytes;
  ack.packets = pull.unacked_packets;
  pull.unacked_bytes = 0;
  pull.unacked_packets = 0;
  stats_.Add(StatId::kDataAcks);
  SendFromKernel(KernelAddress(streamer), MsgType::kMoveDataAck, ack.Encode());
}

void Kernel::HandleWritePacket(ProcessRecord& record, const Message& msg) {
  Result<DataPacket> decoded = DataPacket::Decode(msg.payload);
  if (!decoded.ok()) {
    DEMOS_LOG(kError, "kernel") << "m" << machine_ << ": " << decoded.status().message();
    return;
  }
  const DataPacket& packet = *decoded;
  StatusCode status = StatusCode::kOk;
  if (packet.mode != StreamMode::kPush) {
    status = StatusCode::kInvalidArgument;
  } else if ((packet.link_flags & kLinkDataWrite) == 0) {
    status = StatusCode::kPermissionDenied;
  } else {
    const std::uint64_t dest = std::uint64_t{packet.area_base} + packet.offset;
    const std::uint64_t window_end =
        std::uint64_t{packet.window_offset} + packet.window_length;
    if (dest < packet.window_offset || dest + packet.chunk.size() > window_end) {
      status = StatusCode::kPermissionDenied;  // outside the link's window
    } else {
      Status write = record.memory.WriteData(static_cast<std::uint32_t>(dest),
                                             packet.chunk.ToBytes());
      if (!write.ok()) {
        status = write.code();
      }
    }
  }
  AccumulatePushAck(packet, record.pid, status);
}

void Kernel::AccumulatePushAck(const DataPacket& packet, const ProcessId& target,
                               StatusCode status) {
  const std::uint64_t key =
      (std::uint64_t{packet.streamer} << 32) | packet.transfer_id;
  PushAckState& batch = push_acks_[key];
  batch.streamer = packet.streamer;
  batch.target = target;
  batch.covered_bytes += static_cast<std::uint32_t>(packet.chunk.size());
  batch.packets++;
  if (status != StatusCode::kOk && batch.first_error == StatusCode::kOk) {
    batch.first_error = status;
  }
  const bool final_packet = std::uint64_t{packet.offset} + packet.chunk.size() >= packet.total;
  if (batch.packets >= config_.data_window_packets || final_packet ||
      status != StatusCode::kOk) {
    FlushPushAck(key);
  }
}

void Kernel::FlushPushAck(std::uint64_t key) {
  auto it = push_acks_.find(key);
  if (it == push_acks_.end() || it->second.packets == 0) {
    return;
  }
  const PushAckState batch = it->second;
  push_acks_.erase(it);
  DataAck ack;
  ack.mode = StreamMode::kPush;
  ack.transfer_id = static_cast<std::uint32_t>(key & 0xFFFFFFFFu);
  ack.covered_bytes = batch.covered_bytes;
  ack.packets = batch.packets;
  ack.status = batch.first_error;
  stats_.Add(StatId::kDataAcks);
  SendFromKernel(KernelAddress(batch.streamer), MsgType::kMoveDataAck, ack.Encode());
}

void Kernel::FlushPushAcksFor(const ProcessId& target) {
  std::vector<std::uint64_t> keys;
  for (const auto& [key, batch] : push_acks_) {
    if (batch.target == target) {
      keys.push_back(key);
    }
  }
  for (std::uint64_t key : keys) {
    FlushPushAck(key);
  }
}

void Kernel::HandleDataAck(const Message& msg) {
  Result<DataAck> decoded = DataAck::Decode(msg.payload);
  if (!decoded.ok()) {
    return;
  }
  const DataAck& ack = *decoded;
  auto it = outgoing_transfers_.find(ack.transfer_id);
  if (it == outgoing_transfers_.end()) {
    return;
  }
  OutgoingTransfer& out = it->second;
  out.acked_packets += ack.packets;
  out.acked_bytes += ack.covered_bytes;
  if (out.for_migration) {
    // The destination is draining the section stream: watchdog progress.
    auto mit = migration_sources_.find(out.migration_pid);
    if (mit != migration_sources_.end()) {
      mit->second.last_progress = queue_.Now();
    }
  }
  if (ack.status != StatusCode::kOk && out.first_error == StatusCode::kOk) {
    out.first_error = ack.status;
  }
  if (out.acked_bytes < out.total_bytes || out.acked_packets == 0) {
    return;  // not every byte accounted for yet
  }
  // Stream fully acknowledged.
  if (out.purpose == OutgoingTransfer::Purpose::kAreaWrite) {
    Status status = out.first_error == StatusCode::kOk
                        ? OkStatus()
                        : Status(out.first_error, "area write rejected");
    SendDataMoveDone(out.instigator, out.cookie, status, {});
  }
  outgoing_transfers_.erase(it);
}

void Kernel::HandleReadDataArea(ProcessRecord& record, const Message& msg) {
  Result<ReadAreaRequest> decoded = ReadAreaRequest::Decode(msg.payload);
  if (!decoded.ok()) {
    return;
  }
  const ReadAreaRequest& req = *decoded;
  Status status = OkStatus();
  if ((req.link_flags & kLinkDataRead) == 0) {
    status = PermissionDeniedError("link lacks data-read access");
  } else if (std::uint64_t{req.area_offset} + req.length > req.window_length) {
    status = PermissionDeniedError("read outside the link's data window");
  }
  Bytes data;
  if (status.ok()) {
    data = record.memory.ReadData(req.window_offset + req.area_offset, req.length);
    if (data.size() != req.length) {
      status = InvalidArgumentError("data window outside the data segment");
    }
  }
  if (!status.ok()) {
    SendDataMoveDone(req.instigator, req.cookie, status, {});
    return;
  }
  DataPacket prototype;
  prototype.mode = StreamMode::kPull;
  prototype.transfer_id = req.transfer_id;
  StreamBytes(PayloadRef(std::move(data)), prototype, KernelAddress(req.reply_machine),
              kLinkNone);
}

void Kernel::OnPullComplete(IncomingPull& pull) {
  switch (pull.purpose) {
    case IncomingPull::Purpose::kMigrationSection:
      OnMigrationSectionReceived(pull.migrating_pid, pull.section, std::move(pull.buffer));
      return;
    case IncomingPull::Purpose::kAreaRead:
      SendDataMoveDone(pull.instigator, pull.cookie, OkStatus(), std::move(pull.buffer));
      return;
  }
}

void Kernel::SendDataMoveDone(const ProcessAddress& instigator, std::uint64_t cookie,
                              Status status, Bytes data) {
  ByteWriter w;
  w.U64(cookie);
  w.U8(static_cast<std::uint8_t>(status.code()));
  w.Blob(data);
  SendFromKernel(instigator, MsgType::kDataMoveDone, w.Take());
}

// ---------------------------------------------------------------------------
// Fault-tolerance hooks.
// ---------------------------------------------------------------------------

void Kernel::KickAllProcesses() {
  for (auto& [pid, entry] : processes_.mutable_entries()) {
    if (entry.IsForwarding()) {
      continue;
    }
    ProcessRecord& record = *entry.process;
    for (const TimerEntry& timer : record.timers) {
      ArmTimer(record, timer);  // duplicates are harmless: first fire wins
    }
    MaybeScheduleDispatch(record);
  }
  RearmMigrationWatchdogs();
}

Result<Kernel::ProcessCheckpoint> Kernel::CheckpointProcess(const ProcessId& pid) {
  ProcessRecord* record = processes_.Find(pid);
  if (record == nullptr) {
    return Result<ProcessCheckpoint>(
        NotFoundError("no process " + pid.ToString() + " to checkpoint"));
  }
  ProcessCheckpoint checkpoint;
  checkpoint.pid = pid;
  checkpoint.resident = record->SerializeResidentState();
  checkpoint.swappable = record->SerializeSwappableState(queue_.Now());
  checkpoint.image = record->memory.Serialize();
  return checkpoint;
}

Status Kernel::AdoptProcess(const ProcessCheckpoint& checkpoint) {
  if (processes_.Find(checkpoint.pid) != nullptr) {
    return InvalidArgumentError("process " + checkpoint.pid.ToString() + " already lives here");
  }
  Result<MemoryImage> image = MemoryImage::Deserialize(checkpoint.image);
  if (!image.ok()) {
    return image.status();
  }
  std::unique_ptr<Program> program = ProgramRegistry::Instance().Create(image->ProgramName());
  if (program == nullptr) {
    return NotFoundError("no registered program '" + image->ProgramName() + "'");
  }
  if (memory_used_ + image->TotalSize() > config_.memory_limit_bytes) {
    return ExhaustedError("out of memory adopting " + checkpoint.pid.ToString());
  }

  auto record = std::make_unique<ProcessRecord>();
  record->pid = checkpoint.pid;
  record->memory = std::move(image).value();
  Status resident = record->ApplyResidentState(checkpoint.resident);
  if (!resident.ok()) {
    return resident;
  }
  record->program = std::move(program);
  record->started = true;
  Status swappable = record->ApplySwappableState(checkpoint.swappable, queue_.Now());
  if (!swappable.ok()) {
    return swappable;
  }
  if (record->state == ExecState::kInMigration || record->state == ExecState::kReady) {
    record->state = ExecState::kWaiting;
  }
  memory_used_ += record->memory.TotalSize();

  DropForwardingMeta(checkpoint.pid);  // adopting over our own stale record
  ProcessRecord* raw = processes_.Insert(std::move(record));
  NoteLocationAdvance(raw->pid, machine_, raw->migration_history.size());
  for (const TimerEntry& timer : raw->timers) {
    ArmTimer(*raw, timer);
  }
  MaybeScheduleDispatch(*raw);
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Kernel services.
// ---------------------------------------------------------------------------

void Kernel::HandleCreateProcess(const Message& msg) {
  ByteReader r(msg.payload);
  const std::string program = r.Str();
  const std::uint32_t code_size = r.U32();
  const std::uint32_t data_size = r.U32();
  const std::uint32_t stack_size = r.U32();
  // Optional requester correlation cookie, echoed in the reply.
  const std::uint64_t cookie = r.AtEnd() ? 0 : r.U64();

  Result<ProcessAddress> spawned = SpawnProcess(program, code_size, data_size, stack_size);

  ByteWriter w;
  w.U64(cookie);
  w.U8(static_cast<std::uint8_t>(spawned.ok() ? StatusCode::kOk : spawned.status().code()));
  std::vector<Link> carry;
  if (spawned.ok()) {
    w.Address(*spawned);
    Link to_child;
    to_child.address = *spawned;
    carry.push_back(to_child);
  } else {
    w.Address(ProcessAddress{});
  }

  if (!msg.carried_links.empty()) {
    Message reply;
    reply.sender = kernel_address();
    reply.receiver = msg.carried_links[0].address;
    reply.flags = msg.carried_links[0].flags;
    reply.type = MsgType::kCreateProcessReply;
    reply.payload = w.Take();
    reply.carried_links = std::move(carry);
    Transmit(std::move(reply));
  }
}

void Kernel::EnableLoadReports(ProcessAddress collector, SimDuration interval) {
  load_collector_ = collector;
  load_report_interval_ = interval;
  queue_.After(interval, [this]() {
    if (load_report_interval_ == 0) {
      return;
    }
    LoadReport report;
    report.machine = machine_;
    report.live_processes = static_cast<std::uint16_t>(processes_.LiveProcessCount());
    report.ready_processes = static_cast<std::uint16_t>(ready_count());
    report.cpu_busy_delta_us = static_cast<std::uint32_t>(cpu_busy_us_ - cpu_busy_last_report_);
    report.window_us = static_cast<std::uint32_t>(load_report_interval_);
    report.memory_used = memory_used_;
    report.memory_limit = config_.memory_limit_bytes;
    for (const auto& [pid, entry] : processes_.entries()) {
      if (entry.IsForwarding() || entry.process->state == ExecState::kExited) {
        continue;
      }
      const ProcessRecord& record = *entry.process;
      ProcessLoadEntry p;
      p.pid = pid;
      p.cpu_used_us = static_cast<std::uint32_t>(record.cpu_used_us);
      p.msgs_handled = static_cast<std::uint32_t>(record.messages_handled);
      for (const auto& [partner, count] : record.remote_sends) {
        if (count > p.top_partner_msgs) {
          p.top_partner = partner;
          p.top_partner_msgs = count;
        }
      }
      report.processes.push_back(p);
    }
    cpu_busy_last_report_ = cpu_busy_us_;
    SendFromKernel(load_collector_, MsgType::kLoadReport, report.Encode());
    EnableLoadReports(load_collector_, load_report_interval_);
  });
}

}  // namespace demos
