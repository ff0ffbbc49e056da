// Process migration (Sec. 3), message forwarding (Sec. 4), and link update
// (Sec. 5).
//
// The protocol uses exactly nine administrative messages per successful
// migration, matching the count reported in Sec. 6:
//
//   1. kMigrateRequest   requester -> source kernel (DELIVERTOKERNEL)
//   2. kMigrateOffer     source    -> destination
//   3. kMigrateAccept    destination -> source
//   4. kMoveDataReq      destination -> source (resident state)
//   5. kMoveDataReq      destination -> source (swappable state)
//   6. kMoveDataReq      destination -> source (memory image)
//   7. kTransferComplete destination -> source
//   8. kCleanupDone      source    -> destination
//   9. kMigrateDone      source    -> requester
//
// Steps 3-7 are controlled by the destination kernel, as in the paper; the
// bulk bytes themselves travel as kMoveDataPacket streams (not administrative
// messages) and are accounted separately as state-transfer cost.

#include <algorithm>
#include <utility>

#include "src/base/log.h"
#include "src/kernel/kernel.h"

namespace demos {

namespace {
// Cycle/livelock guard for forwarding and return-to-sender retries.
constexpr std::uint8_t kMaxForwardHops = 32;
}  // namespace

// ---------------------------------------------------------------------------
// Step 1-2: freeze the process and offer it to the destination.
// ---------------------------------------------------------------------------

Status Kernel::StartMigration(const ProcessId& pid, MachineId destination,
                              ProcessAddress requester) {
  ProcessRecord* record = processes_.Find(pid);
  if (record == nullptr) {
    const auto* entry = processes_.FindEntry(pid);
    if (entry != nullptr && entry->IsForwarding()) {
      // Chase the process: the request is a DELIVERTOKERNEL message, so the
      // normal forwarding machinery takes it to wherever the process now is.
    } else if (entry == nullptr) {
      return NotFoundError("no process " + pid.ToString() + " on m" + std::to_string(machine_));
    }
  }
  ByteWriter w;
  w.U16(destination);
  w.Address(requester);
  Message msg;
  msg.sender = requester;
  msg.receiver = ProcessAddress{machine_, pid};
  msg.flags = kLinkDeliverToKernel;
  msg.type = MsgType::kMigrateRequest;
  msg.payload = w.Take();
  Transmit(std::move(msg));
  return OkStatus();
}

void Kernel::HandleMigrateRequest(ProcessRecord& record, const Message& msg) {
  ByteReader r(msg.payload);
  const MachineId destination = r.U16();
  const ProcessAddress requester = r.Address();
  const ProcessId pid = record.pid;

  if (migration_sources_.count(pid) != 0) {
    SendMigrateDone(requester, pid, machine_, StatusCode::kUnavailable);
    return;
  }
  if (destination == machine_) {
    stats_.Add(StatId::kMigrationsNoop);
    SendMigrateDone(requester, pid, machine_, StatusCode::kOk);
    return;
  }
  if (IsPeerSuspect(destination)) {
    // The destination recently went silent (reliable-channel give-up or a
    // watchdog timeout).  Refuse without freezing rather than strand the
    // process waiting on a dead machine; the backoff expires on its own and
    // any delivery from the peer clears it early.
    stats_.Add(StatId::kMigrationsRefusedSuspect);
    SendMigrateDone(requester, pid, machine_, StatusCode::kUnavailable);
    return;
  }

  // Step 1: remove the process from execution.  Its recorded state (ready,
  // waiting, suspended) is preserved so it resumes identically (Sec. 3.1).
  // Any batched push acks for writes already applied here must go out first so
  // the instigator's byte accounting stays exact across the snapshot.
  FlushPushAcksFor(pid);
  TraceMigration(trace::kMigrationBegin, pid, destination);
  FlightMigration(FrMigrationEdge::kStart, pid);
  MigrationSource source;
  source.requester = requester;
  source.destination = destination;
  source.prior_state = record.state;
  source.attempt = next_migration_attempt_++;
  source.last_progress = queue_.Now();
  record.state = ExecState::kInMigration;

  // Snapshot the three movable sections.  Pending local timer events are
  // cancelled via the generation bump; the entries themselves travel in the
  // swappable state and are re-armed on the destination.
  record.timer_generation++;
  record.state = source.prior_state;  // serialize the *recorded* state
  source.resident = record.SerializeResidentState();
  record.state = ExecState::kInMigration;
  source.swappable = record.SerializeSwappableState(queue_.Now());
  source.image = record.memory.Serialize();

  stats_.Record("resident_state_bytes", source.resident.size());
  stats_.Record("swappable_state_bytes", source.swappable.size());
  stats_.Record("memory_image_bytes", source.image.size());

  if (observer_ != nullptr) {
    observer_->OnMigrationFrozen(machine_, destination, record, source.resident,
                                 source.swappable, source.image);
  }

  // Step 2: ask the destination kernel to move the process.
  ByteWriter offer;
  offer.Pid(pid);
  offer.U16(machine_);
  offer.U32(static_cast<std::uint32_t>(source.resident.size()));
  offer.U32(static_cast<std::uint32_t>(source.swappable.size()));
  offer.U32(static_cast<std::uint32_t>(source.image.size()));
  offer.U32(source.attempt);
  TraceMigration(trace::kOfferSent, pid, destination,
                 source.resident.size() + source.swappable.size() + source.image.size());
  SendAdmin(KernelAddress(destination), MsgType::kMigrateOffer, offer.Take());

  const std::uint32_t attempt = source.attempt;
  migration_sources_.emplace(pid, std::move(source));
  const KernelConfig::MigrationDeadlines& dl = config_.migration_deadlines;
  ArmSourceWatchdog(pid, attempt,
                    dl.offer_accept_us != 0 ? dl.offer_accept_us : dl.transfer_progress_us);
  DEMOS_LOG(kInfo, "migrate") << "m" << machine_ << ": offering " << pid.ToString() << " to m"
                              << destination;
}

// ---------------------------------------------------------------------------
// Step 3: the destination allocates a process state (or refuses).
// ---------------------------------------------------------------------------

void Kernel::HandleMigrateOffer(const Message& msg) {
  ByteReader r(msg.payload);
  MigrateOffer offer;
  offer.pid = r.Pid();
  offer.source = r.U16();
  offer.resident_bytes = r.U32();
  offer.swappable_bytes = r.U32();
  offer.memory_bytes = r.U32();
  const std::uint32_t attempt = r.U32();
  TraceMigration(trace::kOfferReceived, offer.pid, offer.source,
                 std::uint64_t{offer.resident_bytes} + offer.swappable_bytes +
                     offer.memory_bytes);
  FlightMigration(FrMigrationEdge::kOfferRecv, offer.pid);

  auto dit = migration_dests_.find(offer.pid);
  if (dit != migration_dests_.end()) {
    if (dit->second.source == offer.source && dit->second.attempt == attempt) {
      // Duplicate of the offer this kernel is already assembling; the pulls
      // are in flight, nothing to redo.
      stats_.Add(StatId::kStaleMigrationMsgs);
      return;
    }
    // A fresh attempt after the source rolled back: the stale partial image
    // is garbage -- discard it and treat the new offer on its merits.
    ReapMigrationDest(offer.pid, "superseded by a newer offer");
  }

  ByteWriter reject;
  reject.Pid(offer.pid);
  const bool out_of_memory = memory_used_ + offer.memory_bytes > config_.memory_limit_bytes;
  const bool vetoed = config_.accept_migration && !config_.accept_migration(offer);
  // Only a LIVE record occupies the pid.  A forwarding entry just means the
  // process once lived here and left; the arriving process is strictly newer
  // information than the stale forwarding address, which Insert below
  // replaces.  Without this a process could never migrate back to any
  // machine it had previously left.
  const ProcessTable::Entry* existing = processes_.FindEntry(offer.pid);
  const bool occupied = existing != nullptr && !existing->IsForwarding();
  if (out_of_memory || vetoed || occupied) {
    // Sec. 3.2: "If the destination machine refuses, the process cannot be
    // migrated."
    const StatusCode code = out_of_memory ? StatusCode::kExhausted : StatusCode::kRefused;
    reject.U8(static_cast<std::uint8_t>(code));
    reject.U32(attempt);
    TraceMigration(trace::kRejectSent, offer.pid, static_cast<std::uint64_t>(code));
    SendAdmin(KernelAddress(offer.source), MsgType::kMigrateReject, reject.Take());
    return;
  }

  if (existing != nullptr) {
    stats_.Add(StatId::kForwardingSuperseded);
    DropForwardingMeta(offer.pid);  // the Insert below replaces the record
  }

  // Allocate an empty process state with the *same* process identifier, and
  // reserve its memory, as in step 3 of the paper.  Insert replaces a stale
  // forwarding entry for the pid, if any.
  auto record = std::make_unique<ProcessRecord>();
  record->pid = offer.pid;
  record->state = ExecState::kInMigration;
  memory_used_ += offer.memory_bytes;
  processes_.Insert(std::move(record));

  MigrationDest dest;
  dest.source = offer.source;
  dest.offer = offer;
  dest.attempt = attempt;
  dest.last_progress = queue_.Now();
  migration_dests_.emplace(offer.pid, dest);
  ArmDestWatchdog(offer.pid, attempt, config_.migration_deadlines.transfer_progress_us != 0
                                          ? config_.migration_deadlines.transfer_progress_us
                                          : config_.migration_deadlines.handoff_us);

  ByteWriter accept;
  accept.Pid(offer.pid);
  accept.U32(attempt);
  TraceMigration(trace::kAcceptSent, offer.pid);
  SendAdmin(KernelAddress(offer.source), MsgType::kMigrateAccept, accept.Take());

  // Steps 4-5: pull the three sections with the move-data facility.
  const MigrationSection sections[] = {MigrationSection::kResidentState,
                                       MigrationSection::kSwappableState,
                                       MigrationSection::kMemoryImage};
  for (MigrationSection section : sections) {
    const std::uint32_t transfer_id = AllocateTransferId();
    IncomingPull pull;
    pull.purpose = IncomingPull::Purpose::kMigrationSection;
    pull.migrating_pid = offer.pid;
    pull.section = section;
    incoming_pulls_.emplace(transfer_id, std::move(pull));

    ByteWriter req;
    req.Pid(offer.pid);
    req.U8(static_cast<std::uint8_t>(section));
    req.U32(transfer_id);
    req.U32(attempt);
    TraceMigration(trace::kPullRequested, offer.pid, static_cast<std::uint64_t>(section));
    SendAdmin(KernelAddress(offer.source), MsgType::kMoveDataReq, req.Take());
  }
}

void Kernel::HandleMigrateAccept(const Message& msg) {
  ByteReader r(msg.payload);
  const ProcessId pid = r.Pid();
  const std::uint32_t attempt = r.U32();
  auto it = migration_sources_.find(pid);
  if (it == migration_sources_.end() || it->second.attempt != attempt) {
    stats_.Add(StatId::kStaleMigrationMsgs);
    return;
  }
  it->second.accepted = true;
  it->second.last_progress = queue_.Now();
  TraceMigration(trace::kAcceptReceived, pid);
  FlightMigration(FrMigrationEdge::kAccepted, pid);
  if (config_.migration_deadlines.offer_accept_us == 0) {
    // No offer-phase chain is running; start the transfer-phase one.
    ArmSourceWatchdog(pid, attempt, config_.migration_deadlines.transfer_progress_us);
  }
}

void Kernel::HandleMigrateReject(const Message& msg) {
  ByteReader r(msg.payload);
  const ProcessId pid = r.Pid();
  const auto code = static_cast<StatusCode>(r.U8());
  const std::uint32_t attempt = r.U32();
  auto it = migration_sources_.find(pid);
  if (it == migration_sources_.end() || it->second.attempt != attempt) {
    // A refusal for an attempt this kernel already rolled back (duplicate
    // delivery, or the reply raced a watchdog abort).  Acting on it would
    // abort a *newer* attempt of the same process; drop it instead.
    stats_.Add(StatId::kStaleMigrationMsgs);
    return;
  }
  AbortMigrationAtSource(pid, Status(code, "destination refused migration"));
}

void Kernel::AbortMigrationAtSource(const ProcessId& pid, Status why) {
  auto it = migration_sources_.find(pid);
  if (it == migration_sources_.end()) {
    return;
  }
  MigrationSource source = std::move(it->second);
  migration_sources_.erase(it);

  ProcessRecord* record = processes_.Find(pid);
  if (record != nullptr) {
    record->state = source.prior_state;
    for (const TimerEntry& timer : record->timers) {
      ArmTimer(*record, timer);  // re-arm under the new generation
    }
    if (record->state == ExecState::kReady) {
      record->state = ExecState::kWaiting;
    }
    MaybeScheduleDispatch(*record);
  }
  stats_.Add(StatId::kMigrationsRefused);
  TraceMigration(trace::kMigrationAborted, pid, static_cast<std::uint64_t>(why.code()));
  FlightMigration(FrMigrationEdge::kAborted, pid);
  if (observer_ != nullptr) {
    observer_->OnMigrationAborted(machine_, pid);
  }
  DEMOS_LOG(kInfo, "migrate") << "m" << machine_ << ": migration of " << pid.ToString()
                              << " aborted: " << why.ToString();
  SendMigrateDone(source.requester, pid, machine_, why.code());
}

// ---------------------------------------------------------------------------
// Steps 4-5: the source streams the requested sections.
// ---------------------------------------------------------------------------

void Kernel::HandleMoveDataReq(const Message& msg) {
  ByteReader r(msg.payload);
  const ProcessId pid = r.Pid();
  const auto section = static_cast<MigrationSection>(r.U8());
  const std::uint32_t transfer_id = r.U32();
  const std::uint32_t attempt = r.U32();

  auto it = migration_sources_.find(pid);
  if (it == migration_sources_.end()) {
    DEMOS_LOG(kWarn, "migrate") << "m" << machine_ << ": MoveDataReq for unknown migration "
                                << pid.ToString();
    return;
  }
  if (it->second.attempt != attempt) {
    stats_.Add(StatId::kStaleMigrationMsgs);
    return;
  }
  it->second.last_progress = queue_.Now();
  const MigrationSource& source = it->second;
  const PayloadRef* bytes = nullptr;
  switch (section) {
    case MigrationSection::kResidentState:
      bytes = &source.resident;
      break;
    case MigrationSection::kSwappableState:
      bytes = &source.swappable;
      break;
    case MigrationSection::kMemoryImage:
      bytes = &source.image;
      break;
  }
  if (bytes == nullptr) {
    return;
  }
  TraceMigration(trace::kSectionStreamed, pid, static_cast<std::uint64_t>(section),
                 bytes->size());
  DataPacket prototype;
  prototype.mode = StreamMode::kPull;
  prototype.transfer_id = transfer_id;
  StreamBytes(*bytes, prototype, KernelAddress(source.destination), kLinkNone);
  // Tag the stream so its acks count as watchdog progress for this migration.
  auto oit = outgoing_transfers_.find(transfer_id);
  if (oit != outgoing_transfers_.end()) {
    oit->second.for_migration = true;
    oit->second.migration_pid = pid;
  }
}

void Kernel::OnMigrationSectionReceived(const ProcessId& pid, MigrationSection section,
                                        Bytes bytes) {
  auto it = migration_dests_.find(pid);
  if (it == migration_dests_.end()) {
    return;
  }
  MigrationDest& dest = it->second;
  dest.last_progress = queue_.Now();
  TraceMigration(trace::kSectionReceived, pid, static_cast<std::uint64_t>(section),
                 bytes.size());
  if (observer_ != nullptr) {
    observer_->OnMigrationSection(machine_, pid, section, bytes);
  }
  dest.sections[static_cast<int>(section)] = std::move(bytes);
  if (--dest.sections_remaining > 0) {
    return;
  }

  // All three sections present: assemble the process.
  ProcessRecord* record = processes_.Find(pid);
  if (record == nullptr) {
    migration_dests_.erase(it);
    return;
  }

  Result<MemoryImage> image =
      MemoryImage::Deserialize(dest.sections[static_cast<int>(MigrationSection::kMemoryImage)]);
  const bool image_ok = image.ok();
  std::unique_ptr<Program> program;
  if (image_ok) {
    record->memory = std::move(image).value();
    program = ProgramRegistry::Instance().Create(record->memory.ProgramName());
  }
  Status resident_ok =
      record->ApplyResidentState(dest.sections[static_cast<int>(MigrationSection::kResidentState)]);

  if (!image_ok || program == nullptr || !resident_ok.ok()) {
    // The transferred state is unusable (e.g. an interdomain destination that
    // cannot execute this program).  Refuse late; the source still holds the
    // authoritative copy and will resume it.
    DEMOS_LOG(kError, "migrate") << "m" << machine_ << ": cannot instantiate migrated process "
                                 << pid.ToString();
    memory_used_ -= std::min<std::uint64_t>(memory_used_, dest.offer.memory_bytes);
    const MachineId source_machine = dest.source;
    const std::uint32_t stale_attempt = dest.attempt;
    processes_.Erase(pid);
    migration_dests_.erase(it);
    ByteWriter w;
    w.Pid(pid);
    w.U8(static_cast<std::uint8_t>(StatusCode::kRefused));
    w.U32(stale_attempt);
    SendAdmin(KernelAddress(source_machine), MsgType::kMigrateReject, w.Take());
    return;
  }

  // Swap the reservation (serialized image size) for the actual footprint.
  memory_used_ -= std::min<std::uint64_t>(memory_used_, dest.offer.memory_bytes);
  memory_used_ += record->memory.TotalSize();

  dest.restored_state = record->state;  // the recorded state from the source
  record->state = ExecState::kInMigration;
  record->program = std::move(program);
  record->started = true;
  record->migration_history.push_back(dest.source);

  Status swappable_ok = record->ApplySwappableState(
      dest.sections[static_cast<int>(MigrationSection::kSwappableState)], queue_.Now());
  if (!swappable_ok.ok()) {
    DEMOS_LOG(kError, "migrate") << "m" << machine_ << ": bad swappable state for "
                                 << pid.ToString() << ": " << swappable_ok.ToString();
  }

  // Step 5 end: control returns to the source kernel.  From here the
  // destination holds a complete image and waits only for kCleanupDone.
  dest.assembled = true;
  dest.last_progress = queue_.Now();
  if (config_.migration_deadlines.transfer_progress_us == 0) {
    // No transfer-phase chain is running; start the handoff-phase one.
    ArmDestWatchdog(pid, dest.attempt, config_.migration_deadlines.handoff_us);
  }
  ByteWriter w;
  w.Pid(pid);
  w.U32(dest.attempt);
  TraceMigration(trace::kTransferDoneSent, pid);
  SendAdmin(KernelAddress(dest.source), MsgType::kTransferComplete, w.Take());
}

// ---------------------------------------------------------------------------
// Steps 6-7: the source forwards pending messages, installs the forwarding
// address, and reclaims the process.
// ---------------------------------------------------------------------------

void Kernel::HandleTransferComplete(const Message& msg) {
  ByteReader r(msg.payload);
  const ProcessId pid = r.Pid();
  const std::uint32_t attempt = r.U32();
  auto it = migration_sources_.find(pid);
  if (it == migration_sources_.end() || it->second.attempt != attempt) {
    // Completion of an attempt already rolled back by the watchdog; the
    // destination's copy will be cancelled (or reaped by its own deadline).
    stats_.Add(StatId::kStaleMigrationMsgs);
    return;
  }
  FinishMigrationAtSource(pid);
}

void Kernel::FinishMigrationAtSource(const ProcessId& pid) {
  auto it = migration_sources_.find(pid);
  if (it == migration_sources_.end()) {
    return;
  }
  MigrationSource source = std::move(it->second);
  migration_sources_.erase(it);

  ProcessRecord* record = processes_.Find(pid);
  if (record == nullptr) {
    return;
  }
  TraceMigration(trace::kTransferDoneReceived, pid);
  FlightMigration(FrMigrationEdge::kTransferDone, pid);

  // Reclamation peer seeding: every sender with a message queued here may
  // hold a stale link to this machine, so the forwarding record about to be
  // installed must survive until each of them acks a link update (or the
  // epoch watermark passes).  Collect them before the re-send loop drains
  // the queue.
  std::vector<MachineId> stale_peers;
  for (const Message& pending : record->queue) {
    if (!pending.sender.valid() || IsKernelPid(pending.sender.pid)) {
      continue;
    }
    const MachineId m = pending.sender.last_known_machine;
    if (m == machine_ || m == kNoMachine ||
        std::find(stale_peers.begin(), stale_peers.end(), m) != stale_peers.end()) {
      continue;
    }
    stale_peers.push_back(m);
  }

  // Step 6: re-send every message that was queued when the migration started
  // or arrived since, with the location part of the address updated.
  std::uint64_t pending_count = 0;
  while (!record->queue.empty()) {
    Message pending = std::move(record->queue.front());
    record->queue.pop_front();
    pending.receiver.last_known_machine = source.destination;
    stats_.Add(StatId::kPendingForwarded);
    ++pending_count;
    if (observer_ != nullptr && pending.trace_id != 0) {
      observer_->OnPendingResend(machine_, pending);
    }
    Transmit(std::move(pending));
  }
  TraceMigration(trace::kPendingForwarded, pid, pending_count);

  // Step 7: reclaim all state; leave a forwarding address (8 bytes: the
  // degenerate process record of Sec. 4) -- or nothing at all in the
  // return-to-sender baseline.  Both branches free the ProcessRecord, so
  // capture the registry version first.
  // This hop will be the destination's (history + 1)'th entry.
  const std::uint64_t next_version = record->migration_history.size() + 1;
  // Resting-chain bound: collapse-on-traversal only fires under traffic, so a
  // chain that nobody sends through could grow one record per migration
  // forever.  When this departure would make the resting chain reach
  // max_chain_hops, tell the oldest over-budget hop to point straight at the
  // new home (one message per migration keeps this O(1)).
  if (config_.max_chain_hops > 0 && config_.link_update_enabled &&
      record->migration_history.size() + 1 >=
          static_cast<std::size_t>(config_.max_chain_hops)) {
    const std::size_t oldest =
        record->migration_history.size() + 1 - static_cast<std::size_t>(config_.max_chain_hops);
    const MachineId target = record->migration_history[oldest];
    if (target != machine_ && target != source.destination) {
      SendChainCollapse(target, pid, source.destination, next_version);
    }
  }
  memory_used_ -= std::min<std::uint64_t>(memory_used_, record->memory.TotalSize());
  record = nullptr;
  if (config_.delivery_mode == KernelConfig::DeliveryMode::kForwarding) {
    InstallForwardingRecord(pid, source.destination, next_version, std::move(stale_peers));
    stats_.Add(StatId::kForwardingAddresses);
    TraceMigration(trace::kForwardingInstalled, pid, source.destination);
  } else {
    processes_.Erase(pid);
  }
  // The departing source is the best-informed node right now: advance the
  // local registry and rumor the move (NoteLocationAdvance is a no-op beyond
  // the registry write when gossip is disabled).
  NoteLocationAdvance(pid, source.destination, next_version);
  stats_.Add(StatId::kMigrationsOut);

  ByteWriter done;
  done.Pid(pid);
  done.U32(source.attempt);
  TraceMigration(trace::kCleanupSent, pid);
  SendAdmin(KernelAddress(source.destination), MsgType::kCleanupDone, done.Take());
  SendMigrateDone(source.requester, pid, source.destination, StatusCode::kOk);
  DEMOS_LOG(kInfo, "migrate") << "m" << machine_ << ": " << pid.ToString() << " moved to m"
                              << source.destination;
}

void Kernel::SendMigrateDone(const ProcessAddress& requester, const ProcessId& pid,
                             MachineId final_home, StatusCode status) {
  if (!requester.valid()) {
    return;
  }
  ByteWriter w;
  w.Pid(pid);
  w.U8(static_cast<std::uint8_t>(status));
  w.U16(final_home);
  Message msg;
  msg.sender = kernel_address();
  msg.receiver = requester;
  msg.type = MsgType::kMigrateDone;
  msg.payload = w.Take();
  Transmit(std::move(msg));
}

// ---------------------------------------------------------------------------
// Step 8: the destination restarts the process.
// ---------------------------------------------------------------------------

void Kernel::HandleCleanupDone(const Message& msg) {
  ByteReader r(msg.payload);
  const ProcessId pid = r.Pid();
  const std::uint32_t attempt = r.U32();
  auto it = migration_dests_.find(pid);
  if (it == migration_dests_.end() || it->second.attempt != attempt) {
    stats_.Add(StatId::kStaleMigrationMsgs);
    return;
  }
  FlightMigration(FrMigrationEdge::kCleanupDone, pid);
  RestartMigratedProcess(pid);
}

void Kernel::RestartMigratedProcess(const ProcessId& pid) {
  auto it = migration_dests_.find(pid);
  if (it == migration_dests_.end()) {
    return;
  }
  MigrationDest dest = std::move(it->second);
  migration_dests_.erase(it);

  ProcessRecord* record = processes_.Find(pid);
  if (record == nullptr) {
    return;
  }

  record->state = dest.restored_state == ExecState::kInMigration ? ExecState::kWaiting
                                                                 : dest.restored_state;
  if (record->state == ExecState::kReady) {
    record->state = ExecState::kWaiting;  // MaybeScheduleDispatch re-arms below
  }
  for (const TimerEntry& timer : record->timers) {
    ArmTimer(*record, timer);
  }
  MaybeScheduleDispatch(*record);

  // Keep the creating machine's location registry current: the
  // return-to-sender baseline depends on it, and the TTL forwarding GC uses
  // it as the fallback name service (Sec. 4).  The local advance also seeds
  // the epidemic service (rumored to gossip_fanout peers).
  NoteLocationAdvance(pid, machine_, record->migration_history.size());
  if (pid.creating_machine != machine_) {
    ByteWriter w;
    w.Pid(pid);
    w.U16(machine_);
    w.U64(record->migration_history.size());
    SendFromKernel(KernelAddress(pid.creating_machine), MsgType::kLocationRegister, w.Take());
  }
  stats_.Add(StatId::kMigrations);
  TraceMigration(trace::kRestarted, pid, static_cast<std::uint64_t>(record->state));
  FlightMigration(FrMigrationEdge::kRestarted, pid);
  if (observer_ != nullptr) {
    observer_->OnMigrationRestart(machine_, pid, *record);
  }
  DEMOS_LOG(kInfo, "migrate") << "m" << machine_ << ": restarted " << pid.ToString()
                              << " in state " << ExecStateName(record->state);
}

// ---------------------------------------------------------------------------
// Failure model: per-phase watchdogs, rollback, and dead-peer suspicion
// (docs/PROTOCOL.md "Failure model & rollback").
//
// Watchdog events are self-checking: each fires, verifies the migration entry
// still exists with the same attempt epoch, recomputes the due time from the
// last observed progress, and either re-arms for the remainder or declares
// the peer dead.  Protocol steps and data acks bump last_progress, so a slow
// but live transfer never times out.
// ---------------------------------------------------------------------------

void Kernel::ArmSourceWatchdog(const ProcessId& pid, std::uint32_t attempt, SimDuration delay) {
  if (delay == 0) {
    return;
  }
  queue_.After(delay, [this, pid, attempt] {
    auto it = migration_sources_.find(pid);
    if (it == migration_sources_.end() || it->second.attempt != attempt) {
      return;  // migration finished, aborted, or restarted under a new epoch
    }
    if (halted_) {
      return;  // crashed mid-wait; KickAllProcesses re-arms on revive
    }
    const MigrationSource& source = it->second;
    const SimDuration deadline = source.accepted
                                     ? config_.migration_deadlines.transfer_progress_us
                                     : config_.migration_deadlines.offer_accept_us;
    if (deadline == 0) {
      return;
    }
    const SimTime due = source.last_progress + deadline;
    if (queue_.Now() < due) {
      ArmSourceWatchdog(pid, attempt, due - queue_.Now());
      return;
    }
    TimeoutMigrationAtSource(pid);
  });
}

void Kernel::ArmDestWatchdog(const ProcessId& pid, std::uint32_t attempt, SimDuration delay) {
  if (delay == 0) {
    return;
  }
  queue_.After(delay, [this, pid, attempt] {
    auto it = migration_dests_.find(pid);
    if (it == migration_dests_.end() || it->second.attempt != attempt) {
      return;
    }
    if (halted_) {
      return;
    }
    const MigrationDest& dest = it->second;
    const SimDuration deadline = dest.assembled
                                     ? config_.migration_deadlines.handoff_us
                                     : config_.migration_deadlines.transfer_progress_us;
    if (deadline == 0) {
      return;
    }
    const SimTime due = dest.last_progress + deadline;
    if (queue_.Now() < due) {
      ArmDestWatchdog(pid, attempt, due - queue_.Now());
      return;
    }
    const MachineId source_machine = dest.source;
    const bool assembled = dest.assembled;
    TraceMigration(trace::kWatchdogTimeout, pid, deadline);
    FlightRecord(FrEvent::kWatchdogFired, deadline, MigrationSpanId(pid));
    SuspectPeer(source_machine);
    if (assembled) {
      // Handoff silence after a complete transfer: a live source -- even one
      // that rolled the process back -- always delivers kCleanupDone or
      // kMigrateCancel within a round trip, so the source is dead and this
      // kernel holds the only complete copy.  Adopt it: restart locally.
      // (Sec. 1's crash-migration scenario, driven by the watchdog.)
      stats_.Add(StatId::kMigrationsAdopted);
      TraceMigration(trace::kDestAdopted, pid, source_machine);
      FlightRecord(FrEvent::kAdopt, source_machine, MigrationSpanId(pid));
      if (flight_ != nullptr) {
        flight_->Trigger("watchdog adopt");
      }
      DEMOS_LOG(kWarn, "migrate") << "m" << machine_ << ": adopting " << pid.ToString()
                                  << " -- source m" << source_machine
                                  << " silent past the handoff deadline";
      RestartMigratedProcess(pid);
    } else {
      ReapMigrationDest(pid, "source silent past the transfer deadline");
    }
  });
}

void Kernel::TimeoutMigrationAtSource(const ProcessId& pid) {
  auto it = migration_sources_.find(pid);
  if (it == migration_sources_.end()) {
    return;
  }
  const MachineId destination = it->second.destination;
  const std::uint32_t attempt = it->second.attempt;
  stats_.Add(StatId::kMigrationsTimedOut);
  TraceMigration(trace::kWatchdogTimeout, pid, destination);
  FlightRecord(FrEvent::kWatchdogFired, 0, MigrationSpanId(pid));
  SuspectPeer(destination);
  // Tell the destination -- if it ever comes back -- to discard the partial
  // image; the attempt epoch makes a late or duplicate cancel a no-op.
  ByteWriter w;
  w.Pid(pid);
  w.U32(attempt);
  TraceMigration(trace::kCancelSent, pid, destination);
  FlightRecord(FrEvent::kCancel, destination, MigrationSpanId(pid));
  if (flight_ != nullptr) {
    flight_->Trigger("watchdog cancel");
  }
  SendAdmin(KernelAddress(destination), MsgType::kMigrateCancel, w.Take());
  AbortMigrationAtSource(pid,
                         Status(StatusCode::kPeerTimeout, "destination silent past deadline"));
}

void Kernel::HandleMigrateCancel(const Message& msg) {
  ByteReader r(msg.payload);
  const ProcessId pid = r.Pid();
  const std::uint32_t attempt = r.U32();
  auto it = migration_dests_.find(pid);
  if (it == migration_dests_.end() || it->second.attempt != attempt) {
    stats_.Add(StatId::kStaleMigrationMsgs);
    return;
  }
  TraceMigration(trace::kCancelReceived, pid, it->second.source);
  FlightMigration(FrMigrationEdge::kCancelRecv, pid);
  ReapMigrationDest(pid, "cancelled by the source");
}

void Kernel::ReapMigrationDest(const ProcessId& pid, const char* why) {
  auto it = migration_dests_.find(pid);
  if (it == migration_dests_.end()) {
    return;
  }
  MigrationDest dest = std::move(it->second);
  migration_dests_.erase(it);

  // Cancel the outstanding section pulls so stray late packets are dropped.
  for (auto pit = incoming_pulls_.begin(); pit != incoming_pulls_.end();) {
    if (pit->second.purpose == IncomingPull::Purpose::kMigrationSection &&
        pit->second.migrating_pid == pid) {
      pit = incoming_pulls_.erase(pit);
    } else {
      ++pit;
    }
  }

  ProcessRecord* record = processes_.Find(pid);
  if (record != nullptr) {
    // Messages held for the arriving process go back toward the source: its
    // kernel either still holds the authoritative copy (rollback in
    // progress) or left a forwarding address behind, and the normal
    // machinery takes over from there.
    while (!record->queue.empty()) {
      Message pending = std::move(record->queue.front());
      record->queue.pop_front();
      pending.receiver.last_known_machine = dest.source;
      stats_.Add(StatId::kPendingForwarded);
      if (observer_ != nullptr && pending.trace_id != 0) {
        observer_->OnPendingResend(machine_, pending);
      }
      Transmit(std::move(pending));
    }
    const std::uint64_t footprint =
        dest.assembled ? record->memory.TotalSize() : dest.offer.memory_bytes;
    memory_used_ -= std::min<std::uint64_t>(memory_used_, footprint);
    processes_.Erase(pid);
  }
  stats_.Add(StatId::kMigrationsReaped);
  TraceMigration(trace::kDestReaped, pid, dest.source);
  FlightRecord(FrEvent::kReap, dest.source, MigrationSpanId(pid));
  if (flight_ != nullptr) {
    flight_->Trigger("migration reap");
  }
  if (observer_ != nullptr) {
    observer_->OnMigrationAborted(machine_, pid);
  }
  DEMOS_LOG(kInfo, "migrate") << "m" << machine_ << ": reaped partial image of "
                              << pid.ToString() << " (" << why << ")";
}

void Kernel::RearmMigrationWatchdogs() {
  // After a revive the pre-crash watchdog events were consumed against a
  // halted kernel; restart the clocks so survivors get a full deadline.
  for (auto& [pid, source] : migration_sources_) {
    source.last_progress = queue_.Now();
    const SimDuration deadline = source.accepted
                                     ? config_.migration_deadlines.transfer_progress_us
                                     : config_.migration_deadlines.offer_accept_us;
    ArmSourceWatchdog(pid, source.attempt, deadline);
  }
  for (auto& [pid, dest] : migration_dests_) {
    dest.last_progress = queue_.Now();
    const SimDuration deadline = dest.assembled
                                     ? config_.migration_deadlines.handoff_us
                                     : config_.migration_deadlines.transfer_progress_us;
    ArmDestWatchdog(pid, dest.attempt, deadline);
  }
}

void Kernel::OnPeerGiveUp(MachineId peer) { SuspectPeer(peer); }

void Kernel::SuspectPeer(MachineId peer) {
  if (config_.suspect_backoff_us == 0) {
    return;
  }
  PeerSuspicion& suspicion = suspects_[peer];
  suspicion.strikes++;
  const std::uint32_t shift = std::min<std::uint32_t>(suspicion.strikes - 1, 6);
  const SimTime until = queue_.Now() + (config_.suspect_backoff_us << shift);
  suspicion.until = std::max(suspicion.until, until);
  stats_.Add(StatId::kPeersSuspected);
  FlightRecord(FrEvent::kSuspect, peer, suspicion.strikes);
  if (tracer_.enabled()) {
    tracer_.Instant(queue_.Now(), trace::kMigration, trace::kPeerSuspected, peer, ProcessId{},
                    peer, suspicion.until);
  }
  DEMOS_LOG(kInfo, "migrate") << "m" << machine_ << ": suspecting m" << peer
                              << " (strike " << suspicion.strikes << ")";
}

// ---------------------------------------------------------------------------
// Message forwarding (Sec. 4) and link update (Sec. 5).
// ---------------------------------------------------------------------------

void Kernel::ForwardThroughAddress(Message msg, MachineId next_machine) {
  if (msg.hop_count >= kMaxForwardHops) {
    DEMOS_LOG(kError, "forward") << "m" << machine_ << ": dropping " << msg.ToString()
                                 << " after " << int{msg.hop_count} << " hops";
    return;
  }
  stats_.Add(StatId::kMsgsForwarded);
  msg.hop_count++;
  msg.RecordVia(machine_);  // the collapse trail: every record this crossed
  TraceMessage(trace::kMsgForward, msg, msg.hop_count, next_machine);

  const ProcessAddress original_sender = msg.sender;
  const ProcessId migrated = msg.receiver.pid;
  // The sender's machine holds a stale link (it routed here); the record must
  // outlive it unless the link update below is acked.
  if (original_sender.valid() && !IsKernelPid(original_sender.pid)) {
    NoteForwardingPeer(migrated, original_sender.last_known_machine);
  }
  msg.receiver.last_known_machine = next_machine;
  if (config_.forward_fault) {
    config_.forward_fault(msg);
  }
  if (observer_ != nullptr) {
    observer_->OnMessageForward(machine_, msg, msg.receiver.last_known_machine);
  }

  // Byproduct of forwarding (Sec. 5, Fig. 5-1): tell the kernel of the
  // sending process to bring its links up to date.  Kernels have no link
  // tables, and updating in response to an update would never terminate.
  const bool updatable = config_.link_update_enabled && msg.type != MsgType::kLinkUpdate &&
                         original_sender.valid() && !IsKernelPid(original_sender.pid);

  Transmit(std::move(msg));
  if (updatable) {
    SendLinkUpdate(original_sender, migrated, next_machine);
  }
}

void Kernel::SendLinkUpdate(const ProcessAddress& original_sender, const ProcessId& migrated,
                            MachineId new_machine) {
  ByteWriter w;
  w.Pid(migrated);
  w.U16(new_machine);
  Message update;
  update.sender = kernel_address();
  update.receiver = original_sender;
  update.flags = kLinkDeliverToKernel;
  update.type = MsgType::kLinkUpdate;
  update.payload = w.Take();
  if (tracer_.enabled()) {
    // Pre-stamp the trace id so the send and the eventual apply (at the
    // sender's kernel) pair up into the link-update-lag histogram.
    update.trace_id = tracer_.NextMessageTraceId();
    tracer_.Instant(queue_.Now(), trace::kMessage, trace::kLinkUpdateSent, update.trace_id,
                    migrated, 0, new_machine);
  }
  stats_.Add(StatId::kLinkUpdateMsgs);
  Transmit(std::move(update));
}

void Kernel::HandleLinkUpdate(ProcessRecord& record, const Message& msg) {
  ByteReader r(msg.payload);
  const ProcessId migrated = r.Pid();
  const MachineId new_machine = r.U16();
  const int patched = record.links.UpdateAddresses(migrated, new_machine);
  if (patched > 0) {
    stats_.Add(StatId::kLinksPatched, patched);
  }
  TraceMessage(trace::kLinkUpdateApplied, msg, static_cast<std::uint64_t>(patched));
  // Ack the forwarder so it can retire this machine from the record's
  // unresolved-peer set (epoch reclamation); without the ack the record lives
  // until the churn-epoch watermark.
  const MachineId forwarder = msg.sender.last_known_machine;
  if (config_.forwarding_reclaim_enabled && msg.sender.valid() &&
      IsKernelPid(msg.sender.pid) && forwarder != machine_ && forwarder != kNoMachine) {
    ByteWriter w;
    w.Pid(migrated);
    stats_.Add(StatId::kLinkUpdateAcks);
    SendFromKernel(KernelAddress(forwarder), MsgType::kLinkUpdateAck, w.Take());
  }
}

// ---------------------------------------------------------------------------
// Absent receivers: dead letters (forwarding mode) or the return-to-sender
// baseline (Sec. 4's rejected alternative, kept for the E6 comparison).
// ---------------------------------------------------------------------------

void Kernel::HandleAbsentReceiver(Message msg, MachineId wire_src) {
  switch (msg.type) {
    case MsgType::kLinkUpdate:
    case MsgType::kNotDeliverable:
    case MsgType::kMoveDataAck:
    case MsgType::kTimerFired:
    case MsgType::kDataMoveDone:
    case MsgType::kMigrateDone:
      return;  // control noise about a process that no longer exists
    default:
      break;
  }
  if (config_.delivery_mode == KernelConfig::DeliveryMode::kReturnToSender) {
    stats_.Add(StatId::kMsgsBounced);
    TraceMessage(trace::kMsgBounce, msg, static_cast<std::uint64_t>(msg.type));
    if (observer_ != nullptr) {
      observer_->OnMessageBounce(machine_, msg);
    }
    ByteWriter w;
    w.Blob(msg.Serialize());
    Message bounce;
    bounce.sender = kernel_address();
    bounce.receiver = KernelAddress(wire_src);
    bounce.type = MsgType::kNotDeliverable;
    bounce.payload = w.Take();
    Transmit(std::move(bounce));
    return;
  }

  // Forwarding mode: an absent pid means the process terminated -- or its
  // forwarding address was garbage-collected (TTL expiry or epoch
  // reclamation).  Consult the gossip-fed local registry first, then fall
  // back to a locate round trip before declaring the message dead.
  if ((config_.forwarding_gc == KernelConfig::ForwardingGc::kExpireAfterTtl ||
       config_.forwarding_reclaim_enabled || config_.gossip_enabled) &&
      msg.hop_count < 2 * kMaxForwardHops) {
    const ProcessId pid = msg.receiver.pid;
    msg.hop_count++;
    auto it = location_registry_.find(pid);
    if (it != location_registry_.end()) {
      if (it->second.where == kNoMachine && it->second.version == ~std::uint64_t{0}) {
        // Tombstoned: known dead, bounce straight to the sender below.
      } else if (it->second.where != kNoMachine && it->second.where != machine_) {
        // A reclaimed record never misroutes: the registry entry is versioned,
        // and a stale hop just repeats this fallback one machine later.  The
        // registry stands in for the reclaimed forwarding address, so this
        // counts (and link-updates) as a forward, not a bounce -- senders
        // converge onto the live host exactly as with a real record.
        stats_.Add(StatId::kGcRerouted);
        stats_.Add(StatId::kMsgsForwarded);
        if (pid.creating_machine != machine_) {
          stats_.Add(StatId::kGossipReroutes);  // knowledge arrived by gossip
        }
        const ProcessAddress original_sender = msg.sender;
        const MachineId where = it->second.where;
        msg.receiver.last_known_machine = where;
        TraceMessage(trace::kMsgForward, msg, msg.hop_count, where);
        if (observer_ != nullptr) {
          observer_->OnMessageForward(machine_, msg, where);
        }
        const bool updatable = config_.link_update_enabled &&
                               msg.type != MsgType::kLinkUpdate && original_sender.valid() &&
                               !IsKernelPid(original_sender.pid);
        Transmit(std::move(msg));
        if (updatable) {
          SendLinkUpdate(original_sender, pid, where);
        }
        return;
      }
    }
    const bool known_dead = it != location_registry_.end() && it->second.where == kNoMachine &&
                            it->second.version == ~std::uint64_t{0};
    if (!known_dead && pid.creating_machine != machine_) {
      ParkForLocate(pid, std::move(msg));
      return;
    }
  }

  stats_.Add(StatId::kMsgsBounced);
  TraceMessage(trace::kMsgBounce, msg, static_cast<std::uint64_t>(msg.type));
  if (observer_ != nullptr) {
    observer_->OnMessageBounce(machine_, msg);
  }
  // Dead for good: notify the sending process so it can recover.
  if (msg.sender.valid() && !IsKernelPid(msg.sender.pid)) {
    ByteWriter w;
    w.U16(static_cast<std::uint16_t>(msg.type));
    w.Pid(msg.receiver.pid);
    SendFromKernel(msg.sender, MsgType::kNotDeliverable, w.Take());
  }
}

void Kernel::HandleNotDeliverable(Message msg, MachineId wire_src) {
  (void)wire_src;
  ByteReader r(msg.payload);
  Result<Message> bounced = Message::Deserialize(r.BlobRef());
  if (!bounced.ok()) {
    return;
  }
  Message original = std::move(bounced).value();
  original.hop_count++;
  if (original.hop_count >= kMaxForwardHops) {
    if (original.sender.valid() && !IsKernelPid(original.sender.pid)) {
      ByteWriter w;
      w.U16(static_cast<std::uint16_t>(original.type));
      w.Pid(original.receiver.pid);
      SendFromKernel(original.sender, MsgType::kNotDeliverable, w.Take());
    }
    return;
  }

  const ProcessId pid = original.receiver.pid;
  // The process may be right here: a stale link can name a machine that died
  // after the process migrated away, and the bounce then lands on the very
  // machine hosting it.  Local residency is ground truth -- no registry hint
  // or locate round trip can know anything fresher -- so deliver and patch
  // the sender's links before consulting anyone else.
  if (ProcessRecord* resident = processes_.Find(pid);
      resident != nullptr && resident->state != ExecState::kExited) {
    ProcessRecord* sender = processes_.Find(original.sender.pid);
    if (sender != nullptr && config_.link_update_enabled) {
      stats_.Add(StatId::kLinksPatched, sender->links.UpdateAddresses(pid, machine_));
    }
    original.receiver.last_known_machine = machine_;
    RouteIncoming(std::move(original), machine_);
    return;
  }
  // Gossip-first: if the epidemic service already knows a newer home, re-send
  // directly instead of burning a locate round trip -- this is what lets the
  // return-to-sender baseline converge past a permanently dead creating
  // machine.
  auto rit = location_registry_.find(pid);
  if (rit != location_registry_.end() && rit->second.where != kNoMachine &&
      rit->second.where != wire_src) {
    ProcessRecord* sender = processes_.Find(original.sender.pid);
    if (sender != nullptr && config_.link_update_enabled) {
      stats_.Add(StatId::kLinksPatched,
                 sender->links.UpdateAddresses(pid, rit->second.where));
    }
    stats_.Add(StatId::kGossipReroutes);
    original.receiver.last_known_machine = rit->second.where;
    Transmit(std::move(original));
    return;
  }
  if (rit != location_registry_.end() && rit->second.where == kNoMachine &&
      rit->second.version == ~std::uint64_t{0}) {
    // Known dead: report straight back to the sending process.
    if (original.sender.valid() && !IsKernelPid(original.sender.pid)) {
      ByteWriter w;
      w.U16(static_cast<std::uint16_t>(original.type));
      w.Pid(pid);
      SendFromKernel(original.sender, MsgType::kNotDeliverable, w.Take());
    }
    return;
  }
  ParkForLocate(pid, std::move(original));
}

void Kernel::ParkForLocate(const ProcessId& pid, Message msg) {
  ParkedLocate& parked = parked_for_locate_[pid];
  parked.msgs.push_back(std::move(msg));
  if (parked.msgs.size() > 1) {
    return;  // a probe (and its retry chain) is already in flight
  }
  parked.attempts = 1;
  const MachineId target = PickLocateTarget(parked.attempts, pid);
  ByteWriter w;
  w.Pid(pid);
  SendFromKernel(KernelAddress(target), MsgType::kLocateReq, w.Take());
  ArmLocateRetry(pid, parked.generation);
}

MachineId Kernel::PickLocateTarget(std::uint32_t attempt, const ProcessId& pid) {
  const MachineId home = pid.creating_machine;
  // First two probes go to the creating machine -- the authoritative registry
  // -- unless it is already suspect and alternatives exist.
  const bool have_alternatives = !known_peers_.empty() || config_.cluster_machines > 1;
  if (attempt <= 2 && home != machine_ && !(IsPeerSuspect(home) && have_alternatives)) {
    return home;
  }
  // Later attempts rotate over the membership: every kernel answers
  // kLocateReq from its gossip-fed registry, and the current host always
  // knows where the process is (itself).  Prefer known peers, fall back to
  // the dense id space hint, skip suspects while any non-suspect remains.
  std::vector<MachineId> candidates;
  for (MachineId p : known_peers_) {
    if (p != machine_) {
      candidates.push_back(p);
    }
  }
  for (int m = 0; m < config_.cluster_machines; ++m) {
    const MachineId mm = static_cast<MachineId>(m);
    if (mm != machine_ &&
        std::find(candidates.begin(), candidates.end(), mm) == candidates.end()) {
      candidates.push_back(mm);
    }
  }
  if (candidates.empty()) {
    return home;  // nothing better to try: keep knocking
  }
  const std::size_t start = (attempt + pid.local_id) % candidates.size();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const MachineId c = candidates[(start + i) % candidates.size()];
    if (!IsPeerSuspect(c)) {
      return c;
    }
  }
  return candidates[start];  // all suspect: probe anyway, backoff paces us
}

void Kernel::ArmLocateRetry(const ProcessId& pid, std::uint32_t generation) {
  if (config_.locate_max_attempts <= 1) {
    return;  // single-probe behavior: the response (or silence) is final
  }
  auto pit = parked_for_locate_.find(pid);
  if (pit == parked_for_locate_.end()) {
    return;
  }
  const std::uint32_t shift = std::min<std::uint32_t>(pit->second.attempts - 1, 8);
  const SimDuration base = config_.locate_retry_base_us << shift;
  const SimDuration jitter = base > 0 ? static_cast<SimDuration>(rng_.Next() % (base / 2 + 1)) : 0;
  queue_.After(base + jitter, [this, pid, generation] { LocateRetryFired(pid, generation); });
}

void Kernel::LocateRetryFired(const ProcessId& pid, std::uint32_t generation) {
  auto it = parked_for_locate_.find(pid);
  if (it == parked_for_locate_.end() || it->second.generation != generation) {
    return;  // resolved (or bounced) while this event was in flight
  }
  if (halted_) {
    // Crashed: this chain is dead.  If the machine revives, SetHalted(false)
    // calls ReprobeParkedLocates to start a fresh one; if it never does, the
    // parked messages died with the machine (checker exempts via last_dest).
    return;
  }
  // Gossip may have answered while we waited.
  auto rit = location_registry_.find(pid);
  if (rit != location_registry_.end() && rit->second.where != kNoMachine &&
      rit->second.where != machine_) {
    ResolveParkedLocate(pid, rit->second.where);
    return;
  }
  if (rit != location_registry_.end() && rit->second.where == kNoMachine &&
      rit->second.version == ~std::uint64_t{0}) {
    BounceParkedLocate(pid);
    return;
  }
  ParkedLocate& parked = it->second;
  if (parked.attempts >= config_.locate_max_attempts) {
    stats_.Add(StatId::kLocateGaveUp);
    BounceParkedLocate(pid);
    return;
  }
  parked.attempts++;
  const MachineId target = PickLocateTarget(parked.attempts, pid);
  stats_.Add(StatId::kLocateRetries);
  FlightRecord(FrEvent::kLocateRetry, target, parked.attempts);
  ByteWriter w;
  w.Pid(pid);
  SendFromKernel(KernelAddress(target), MsgType::kLocateReq, w.Take());
  ArmLocateRetry(pid, generation);
}

void Kernel::ReprobeParkedLocates() {
  for (auto& [pid, parked] : parked_for_locate_) {
    // Bump the generation so a stale pre-outage retry event (still queued)
    // cannot double-drive the chain, then probe and re-arm.  Attempts carry
    // over: the give-up budget spans outages, so a pid parked across repeated
    // kill/restart cycles still reaches a bounce verdict eventually.
    parked.generation++;
    if (parked.attempts == 0) {
      parked.attempts = 1;
    }
    const MachineId target = PickLocateTarget(parked.attempts, pid);
    stats_.Add(StatId::kLocateRetries);
    FlightRecord(FrEvent::kLocateRetry, target, parked.attempts);
    ByteWriter w;
    w.Pid(pid);
    SendFromKernel(KernelAddress(target), MsgType::kLocateReq, w.Take());
    ArmLocateRetry(pid, parked.generation);
  }
}

void Kernel::ResolveParkedLocate(const ProcessId& pid, MachineId where) {
  auto it = parked_for_locate_.find(pid);
  if (it == parked_for_locate_.end()) {
    return;
  }
  std::vector<Message> msgs = std::move(it->second.msgs);
  parked_for_locate_.erase(it);
  for (Message& original : msgs) {
    // Patch the sending process's links too, so the baseline gets the same
    // lazy-update benefit the forwarding scheme enjoys.
    ProcessRecord* sender = processes_.Find(original.sender.pid);
    if (sender != nullptr && config_.link_update_enabled) {
      stats_.Add(StatId::kLinksPatched, sender->links.UpdateAddresses(pid, where));
    }
    original.receiver.last_known_machine = where;
    if (observer_ != nullptr) {
      observer_->OnMessageForward(machine_, original, where);
    }
    Transmit(std::move(original));
  }
}

void Kernel::BounceParkedLocate(const ProcessId& pid) {
  auto it = parked_for_locate_.find(pid);
  if (it == parked_for_locate_.end()) {
    return;
  }
  std::vector<Message> msgs = std::move(it->second.msgs);
  parked_for_locate_.erase(it);
  for (Message& original : msgs) {
    stats_.Add(StatId::kMsgsBounced);
    TraceMessage(trace::kMsgBounce, original, static_cast<std::uint64_t>(original.type));
    if (observer_ != nullptr) {
      observer_->OnMessageBounce(machine_, original);
    }
    if (original.sender.valid() && !IsKernelPid(original.sender.pid)) {
      ByteWriter w;
      w.U16(static_cast<std::uint16_t>(original.type));
      w.Pid(pid);
      SendFromKernel(original.sender, MsgType::kNotDeliverable, w.Take());
    }
  }
}

void Kernel::HandleLocateReq(const Message& msg) {
  ByteReader r(msg.payload);
  const ProcessId pid = r.Pid();
  MachineId where = kNoMachine;
  std::uint64_t version = 0;
  if (processes_.Find(pid) != nullptr) {
    where = machine_;
    version = processes_.Find(pid)->migration_history.size();
  } else {
    auto it = location_registry_.find(pid);
    if (it != location_registry_.end()) {
      where = it->second.where;
      version = it->second.version;
    }
  }
  ByteWriter w;
  w.Pid(pid);
  w.U16(where);
  w.U64(version);  // ~0 = tombstone (dead); 0 with kNoMachine = simply unknown
  SendFromKernel(msg.sender, MsgType::kLocateResp, w.Take());
}

void Kernel::HandleLocateResp(const Message& msg) {
  ByteReader r(msg.payload);
  const ProcessId pid = r.Pid();
  const MachineId where = r.U16();
  const std::uint64_t version = r.AtEnd() ? 0 : r.U64();

  auto it = parked_for_locate_.find(pid);
  if (it == parked_for_locate_.end()) {
    return;
  }
  if (where != kNoMachine && where != machine_) {
    NoteLocationAdvance(pid, where, version);
    ResolveParkedLocate(pid, where);
    return;
  }
  if (where == machine_) {
    // A stale registry pointing back at us: the process is demonstrably not
    // here (that's why the messages are parked).  Treat as unknown and let
    // the retry chain rotate to another holder.
    if (config_.locate_max_attempts <= 1) {
      BounceParkedLocate(pid);
    }
    return;
  }
  const bool dead = version == ~std::uint64_t{0};
  if (dead) {
    NoteLocationAdvance(pid, kNoMachine, version);
    BounceParkedLocate(pid);
    return;
  }
  // "Unknown" from one registry is not final while retries remain: another
  // probe target (or a gossip triple) may still know.  With retries disabled,
  // this response is the verdict -- bounce as the old single-probe code did.
  if (config_.locate_max_attempts <= 1 || it->second.attempts >= config_.locate_max_attempts) {
    BounceParkedLocate(pid);
  }
}

void Kernel::HandleLocationRegister(const Message& msg) {
  ByteReader r(msg.payload);
  const ProcessId pid = r.Pid();
  const MachineId where = r.U16();
  const std::uint64_t version = r.U64();
  // Registrations feed the epidemic too: the home machine is the most-queried
  // registry, so re-rumoring from here spreads fresh locations fastest.
  NoteLocationAdvance(pid, where, version);
}

bool Kernel::RefuseSendToDead(const ProcessAddress& sender, const ProcessAddress& to,
                              MsgType type) {
  if (!config_.gossip_enabled && !config_.forwarding_reclaim_enabled) {
    return false;
  }
  if (!to.pid.valid() || IsKernelPid(to.pid) || processes_.Find(to.pid) != nullptr) {
    return false;
  }
  // Only the locate-gave-up marker refuses here, not a hard tombstone: the
  // marker means this very kernel already ran the full bounce/locate cycle
  // for this pid and nobody answered, so repeating it would cost a chain of
  // messages to learn nothing new.  Hard tombstones still take the normal
  // bounce path (one network round trip) -- which installs the marker.
  auto it = location_registry_.find(to.pid);
  if (it == location_registry_.end() || it->second.where != kNoMachine ||
      it->second.version != 0) {
    return false;
  }
  stats_.Add(StatId::kSendsRefused);
  ByteWriter w;
  w.U16(static_cast<std::uint16_t>(type));
  w.Pid(to.pid);
  SendFromKernel(sender, MsgType::kNotDeliverable, w.Take());
  return true;
}

void Kernel::HandleForwardingClear(const Message& msg) {
  ByteReader r(msg.payload);
  const ProcessId pid = r.Pid();
  const auto* entry = processes_.FindEntry(pid);
  if (entry != nullptr && entry->IsForwarding()) {
    DropForwardingMeta(pid);
    processes_.Erase(pid);
    stats_.Add(StatId::kForwardingCleared);
  }
}

// ---------------------------------------------------------------------------
// Churn-proof addressing: chain collapse, epoch reclamation, and the
// epidemic location service (docs/PROTOCOL.md "Addressing, forwarding GC &
// gossip").
// ---------------------------------------------------------------------------

void Kernel::EmitChainCollapse(const Message& msg) {
  if (!config_.link_update_enabled || config_.max_chain_hops <= 0) {
    return;  // collapse is a link-update mechanism; the ablation arm keeps
             // chains growing exactly as the paper describes
  }
  const ProcessId pid = msg.receiver.pid;
  ProcessRecord* record = processes_.Find(pid);
  if (record == nullptr) {
    return;
  }
  const std::uint64_t version = record->migration_history.size();
  stats_.Add(StatId::kChainCollapses);
  for (std::uint8_t i = 0; i < msg.via_count && i < Message::kMaxViaSlots; ++i) {
    const MachineId via = msg.via[i];
    if (via == machine_ || via == kNoMachine) {
      continue;
    }
    FlightRecord(FrEvent::kChainCollapse, via, pid.local_id);
    SendChainCollapse(via, pid, machine_, version);
  }
}

void Kernel::SendChainCollapse(MachineId to, const ProcessId& pid, MachineId owner,
                               std::uint64_t version) {
  ByteWriter w;
  w.Pid(pid);
  w.U16(owner);
  w.U64(version);
  SendFromKernel(KernelAddress(to), MsgType::kChainCollapse, w.Take());
}

void Kernel::HandleChainCollapse(const Message& msg) {
  ByteReader r(msg.payload);
  const ProcessId pid = r.Pid();
  const MachineId owner = r.U16();
  const std::uint64_t version = r.U64();
  auto& entries = processes_.mutable_entries();
  auto it = entries.find(pid);
  if (it == entries.end() || !it->second.IsForwarding()) {
    return;  // record reclaimed, or the process moved back here: both newer
  }
  // Strictly-newer guard: a late collapse from a superseded owner must not
  // re-point the chain backwards and create a routing cycle.
  if (version <= it->second.version || owner == machine_) {
    return;
  }
  it->second.forward_to = owner;
  it->second.version = version;
  // installed_at is deliberately NOT refreshed: the epoch watermark measures
  // the record's age, and a re-point does not make the record younger.
  stats_.Add(StatId::kChainCollapseApplied);
}

void Kernel::HandleLinkUpdateAck(const Message& msg) {
  ByteReader r(msg.payload);
  const ProcessId pid = r.Pid();
  const MachineId peer = msg.sender.last_known_machine;
  auto it = fwd_meta_.find(pid);
  if (it == fwd_meta_.end()) {
    return;
  }
  auto& peers = it->second.peers;
  const bool was_empty = peers.empty();
  peers.erase(std::remove(peers.begin(), peers.end(), peer), peers.end());
  if (!was_empty && peers.empty()) {
    it->second.peers_emptied_at = queue_.Now();
  }
}

void Kernel::InstallForwardingRecord(const ProcessId& pid, MachineId machine,
                                     std::uint64_t version, std::vector<MachineId> peers) {
  processes_.InstallForwardingAddress(pid, machine, queue_.Now(), version);
  auto [it, inserted] = fwd_meta_.try_emplace(pid);
  it->second.peers = std::move(peers);
  it->second.installed_at = queue_.Now();
  it->second.last_used = queue_.Now();
  it->second.peers_emptied_at = it->second.peers.empty() ? queue_.Now() : 0;
  if (inserted) {
    stats_.Add(StatId::kFwdRecordsLive);
  }
}

void Kernel::DropForwardingMeta(const ProcessId& pid) {
  if (fwd_meta_.erase(pid) != 0) {
    stats_.Add(StatId::kFwdRecordsLive, -1);
  }
}

void Kernel::ReclaimForwardingRecord(const ProcessId& pid) {
  const auto* entry = processes_.FindEntry(pid);
  if (entry != nullptr && entry->IsForwarding()) {
    processes_.Erase(pid);
  }
  DropForwardingMeta(pid);
  stats_.Add(StatId::kFwdReclaimed);
}

void Kernel::NoteForwardingPeer(const ProcessId& pid, MachineId peer) {
  auto it = fwd_meta_.find(pid);
  if (it == fwd_meta_.end()) {
    return;
  }
  it->second.last_used = queue_.Now();
  if (peer != machine_ && peer != kNoMachine && !it->second.HasPeer(peer)) {
    it->second.peers.push_back(peer);
    it->second.peers_emptied_at = 0;
  }
}

void Kernel::SweepAddressingState() {
  const SimTime now = queue_.Now();

  // TTL expiry (the PR-era policy; only in kExpireAfterTtl mode).
  if (config_.forwarding_gc == KernelConfig::ForwardingGc::kExpireAfterTtl) {
    auto& entries = processes_.mutable_entries();
    for (auto it = entries.begin(); it != entries.end();) {
      if (it->second.IsForwarding() && now - it->second.installed_at > config_.forwarding_ttl_us) {
        stats_.Add(StatId::kForwardingExpired);
        DropForwardingMeta(it->first);
        it = entries.erase(it);
      } else {
        ++it;
      }
    }
  }

  std::uint64_t records_reclaimed = 0;
  std::uint64_t tombstones_reclaimed = 0;
  if (config_.forwarding_reclaim_enabled) {
    // Epoch reclamation: a record whose unresolved-peer set drained is only
    // kept through the grace window (late retransmits from an acked peer);
    // past the churn-epoch watermark the record goes unconditionally -- any
    // straggler falls back to the locate path, which cannot misroute.
    std::vector<ProcessId> reclaim;
    for (const auto& [pid, meta] : fwd_meta_) {
      // Grace runs from whichever is later: install or the ack that drained
      // the last peer (late retransmits chase the *ack*, not the install).
      const SimTime drained = std::max(meta.installed_at, meta.peers_emptied_at);
      if ((meta.peers.empty() && now - drained > config_.reclaim_grace_us) ||
          now - meta.installed_at > config_.reclaim_watermark_us) {
        reclaim.push_back(pid);
      }
    }
    for (const ProcessId& pid : reclaim) {
      ReclaimForwardingRecord(pid);
      ++records_reclaimed;
    }
    // Hard cap with LRU fallback: bounded memory even when every ack is lost.
    while (fwd_meta_.size() > config_.forwarding_record_cap) {
      auto lru = fwd_meta_.begin();
      for (auto it = fwd_meta_.begin(); it != fwd_meta_.end(); ++it) {
        if (it->second.last_used < lru->second.last_used) {
          lru = it;
        }
      }
      const ProcessId pid = lru->first;
      ReclaimForwardingRecord(pid);
      ++records_reclaimed;
    }

    // Registry GC (the PR-3 leak): everything in the registry is epoch state
    // except the home machine's own live entries (the locate fallback's
    // ground truth -- a home entry for a dead pid is a tombstone, so only
    // live, still-relevant entries are exempt).  Past the watermark no
    // in-flight registration from a pre-death migration can still exist, so
    // old tombstones are dead weight; old non-home hints are at best a cache
    // entry a locate can rebuild and at worst a stale pointer at a machine
    // that missed the death rumor, so they go too.
    for (auto it = location_registry_.begin(); it != location_registry_.end();) {
      // Ground truth is exempt from the watermark: the home machine's live
      // entries (the locate fallback of last resort) and entries for processes
      // resident right here (a bounced send recovers through this hint when a
      // stale link names a now-dead machine).  Either way a dead pid's entry
      // is a tombstone, so only genuinely live, authoritative hints survive.
      const bool ground_truth =
          it->second.where != kNoMachine &&
          (it->first.creating_machine == machine_ || processes_.Find(it->first) != nullptr);
      if (!ground_truth && now - it->second.updated_at > config_.reclaim_watermark_us) {
        it = location_registry_.erase(it);
        ++tombstones_reclaimed;
      } else {
        ++it;
      }
    }
    // Registry hard cap: evict the oldest tombstones first, never live
    // entries (they are the gossip substrate).
    while (location_registry_.size() > config_.tombstone_cap) {
      auto oldest = location_registry_.end();
      for (auto it = location_registry_.begin(); it != location_registry_.end(); ++it) {
        if (it->second.where != kNoMachine) {
          continue;
        }
        if (oldest == location_registry_.end() ||
            it->second.updated_at < oldest->second.updated_at) {
          oldest = it;
        }
      }
      if (oldest == location_registry_.end()) {
        break;  // cap exceeded by live entries alone; nothing safe to evict
      }
      location_registry_.erase(oldest);
      ++tombstones_reclaimed;
    }
    if (tombstones_reclaimed != 0) {
      stats_.Add(StatId::kTombstonesReclaimed, static_cast<std::int64_t>(tombstones_reclaimed));
    }
  }

  if (records_reclaimed != 0 || tombstones_reclaimed != 0) {
    FlightRecord(FrEvent::kFwdReclaim, records_reclaimed, tombstones_reclaimed);
  }
  last_forwarding_sweep_ = now;
}

// ---------------------------------------------------------------------------
// Epidemic location service.  Strictly news-driven: rumors queue when a
// registry entry advances and flush at most once per gossip_interval_us,
// riding the next routed message when rate-limited.  A triple is re-rumored
// only by kernels it advanced, so the epidemic dies out once every reachable
// kernel has converged -- no standing timers, and the cluster still settles.
// ---------------------------------------------------------------------------

bool Kernel::NoteLocationAdvance(const ProcessId& pid, MachineId where, std::uint64_t version) {
  if (!UpdateLocation(pid, where, version)) {
    return false;
  }
  if (!config_.gossip_enabled) {
    return true;
  }
  LocationEntry& rumor = pending_rumors_[pid];
  rumor.where = where;
  rumor.version = version;
  rumor.updated_at = queue_.Now();
  if (queue_.Now() - last_gossip_flush_ >= config_.gossip_interval_us) {
    FlushGossip();
  }
  return true;
}

void Kernel::FlushGossip() {
  if (!config_.gossip_enabled || pending_rumors_.empty() || known_peers_.empty() ||
      config_.gossip_fanout <= 0) {
    return;
  }
  last_gossip_flush_ = queue_.Now();

  // The payload: every pending rumor, plus up to gossip_max_triples random
  // registry entries as anti-entropy (old news costs nothing extra to carry
  // and repairs peers that missed the original rumor).
  std::vector<std::pair<ProcessId, LocationEntry>> triples;
  triples.reserve(pending_rumors_.size() + config_.gossip_max_triples);
  for (const auto& [pid, entry] : pending_rumors_) {
    triples.emplace_back(pid, entry);
  }
  pending_rumors_.clear();
  if (!location_registry_.empty() && config_.gossip_max_triples > 0) {
    std::size_t budget = config_.gossip_max_triples;
    const std::size_t skip = rng_.Next() % location_registry_.size();
    std::size_t i = 0;
    const SimTime now = queue_.Now();
    for (const auto& [pid, entry] : location_registry_) {
      if (i++ < skip || budget == 0) {
        continue;
      }
      // Anti-entropy carries only recently-advanced entries.  Old news that
      // kept circulating would re-seed peers that already reclaimed the entry
      // (tombstone or stale hint alike), and the resurrection chain could
      // outlive the watermark; bounded by the grace window, every copy stops
      // spreading long before any copy is reclaimed, so each rumor generation
      // provably dies out.
      if (config_.forwarding_reclaim_enabled &&
          now - entry.updated_at > config_.reclaim_grace_us) {
        continue;
      }
      // Locate-gave-up markers are this kernel's own negative verdict, not
      // cluster news -- spreading them could clobber a peer's fresher hint.
      if (entry.where == kNoMachine && entry.version != ~std::uint64_t{0}) {
        continue;
      }
      bool already = false;
      for (const auto& [tp, te] : triples) {
        if (tp == pid) {
          already = true;
          break;
        }
      }
      if (!already) {
        triples.emplace_back(pid, entry);
        --budget;
      }
    }
  }

  ByteWriter w;
  w.U16(static_cast<std::uint16_t>(triples.size()));
  for (const auto& [pid, entry] : triples) {
    w.Pid(pid);
    w.U16(entry.where);
    w.U64(entry.version);
  }
  const PayloadRef payload(w.Take());

  // Fan out to gossip_fanout distinct peers, preferring non-suspects.
  std::vector<MachineId> targets;
  const std::size_t start = rng_.Next() % known_peers_.size();
  for (std::size_t i = 0;
       i < known_peers_.size() && targets.size() < static_cast<std::size_t>(config_.gossip_fanout);
       ++i) {
    const MachineId peer = known_peers_[(start + i) % known_peers_.size()];
    if (!IsPeerSuspect(peer)) {
      targets.push_back(peer);
    }
  }
  if (targets.empty()) {
    targets.push_back(known_peers_[start]);  // all suspect: gossip anyway
  }
  stats_.Add(StatId::kGossipRounds);
  for (MachineId peer : targets) {
    stats_.Add(StatId::kGossipRumors, static_cast<std::int64_t>(triples.size()));
    FlightRecord(FrEvent::kGossip, peer, triples.size());
    SendFromKernel(KernelAddress(peer), MsgType::kGossip, payload);
  }
}

void Kernel::HandleGossip(const Message& msg) {
  ByteReader r(msg.payload);
  const std::uint16_t count = r.U16();
  for (std::uint16_t i = 0; i < count; ++i) {
    const ProcessId pid = r.Pid();
    const MachineId where = r.U16();
    const std::uint64_t version = r.U64();
    // Ignore triples about a process that lives HERE at an older version than
    // our own record -- and never let gossip overwrite first-hand knowledge.
    ProcessRecord* local = processes_.Find(pid);
    if (local != nullptr && version <= local->migration_history.size()) {
      continue;
    }
    if (NoteLocationAdvance(pid, where, version)) {
      stats_.Add(StatId::kGossipAdvanced);
      // Fresh news can resolve messages parked on a locate probe.
      if (parked_for_locate_.count(pid) != 0) {
        if (where != kNoMachine && where != machine_) {
          ResolveParkedLocate(pid, where);
        } else if (where == kNoMachine && version == ~std::uint64_t{0}) {
          BounceParkedLocate(pid);
        }
      }
    }
  }
}

}  // namespace demos
