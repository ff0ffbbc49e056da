// Process migration (Sec. 3) and its failure model: per-phase watchdogs,
// rollback, reap and adopt.  What the move leaves behind for addressing
// (forwarding address, registry, gossip) is handed to Addressing.
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
  if (addressing_.IsPeerSuspect(destination)) {
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
  events_.Emit<FrEvent::kMigrationBegin>(pid, destination);
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

  stats_.Record(StatHistogramId::kResidentStateBytes, source.resident.size());
  stats_.Record(StatHistogramId::kSwappableStateBytes, source.swappable.size());
  stats_.Record(StatHistogramId::kMemoryImageBytes, source.image.size());

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
  events_.Emit<FrEvent::kOfferSent>(
      pid, destination, source.resident.size() + source.swappable.size() + source.image.size());
  SendFromKernel(KernelAddress(destination), MsgType::kMigrateOffer, offer.Take());

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
  events_.Emit<FrEvent::kOfferReceived>(
      offer.pid, offer.source,
      std::uint64_t{offer.resident_bytes} + offer.swappable_bytes + offer.memory_bytes);

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
    events_.Emit<FrEvent::kRejectSent>(offer.pid, static_cast<std::uint64_t>(code));
    SendFromKernel(KernelAddress(offer.source), MsgType::kMigrateReject, reject.Take());
    return;
  }

  if (addressing_.OnArrival(offer.pid)) {
    stats_.Add(StatId::kForwardingSuperseded);  // the Insert below replaces the record
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
  events_.Emit<FrEvent::kAcceptSent>(offer.pid);
  SendFromKernel(KernelAddress(offer.source), MsgType::kMigrateAccept, accept.Take());

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
    events_.Emit<FrEvent::kPullRequested>(offer.pid, static_cast<std::uint64_t>(section));
    SendFromKernel(KernelAddress(offer.source), MsgType::kMoveDataReq, req.Take());
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
  events_.Emit<FrEvent::kAcceptReceived>(pid);
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
  events_.Emit<FrEvent::kMigrationAborted>(pid, static_cast<std::uint64_t>(why.code()));
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
  events_.Emit<FrEvent::kSectionStreamed>(pid, static_cast<std::uint64_t>(section), bytes->size());
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
  events_.Emit<FrEvent::kSectionReceived>(pid, static_cast<std::uint64_t>(section), bytes.size());
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
    SendFromKernel(KernelAddress(source_machine), MsgType::kMigrateReject, w.Take());
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
  events_.Emit<FrEvent::kTransferDoneSent>(pid);
  SendFromKernel(KernelAddress(dest.source), MsgType::kTransferComplete, w.Take());
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
  events_.Emit<FrEvent::kTransferDoneReceived>(pid);

  // Seed the forwarding record's peers before the re-send loop drains them.
  std::vector<MachineId> stale_peers = addressing_.StalePeers(record->queue);

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
  events_.Emit<FrEvent::kPendingForwarded>(pid, pending_count);

  // Step 7: reclaim all state; Addressing leaves the forwarding address.
  memory_used_ -= std::min<std::uint64_t>(memory_used_, record->memory.TotalSize());
  addressing_.OnDeparted(pid, source.destination, record->migration_history,
                         std::move(stale_peers));
  stats_.Add(StatId::kMigrationsOut);

  ByteWriter done;
  done.Pid(pid);
  done.U32(source.attempt);
  events_.Emit<FrEvent::kCleanupSent>(pid);
  SendFromKernel(KernelAddress(source.destination), MsgType::kCleanupDone, done.Take());
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
  SendFromKernel(requester, MsgType::kMigrateDone, w.Take());
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
  events_.Emit<FrEvent::kCleanupReceived>(pid);
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

  addressing_.OnRestarted(pid, record->migration_history.size());
  stats_.Add(StatId::kMigrations);
  events_.Emit<FrEvent::kRestarted>(pid, static_cast<std::uint64_t>(record->state));
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
    TimeoutMigrationAtSource(pid, deadline);
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
    events_.Emit<FrEvent::kWatchdogTimeout>(pid, deadline, source_machine);
    addressing_.OnPeerGiveUp(source_machine);
    if (assembled) {
      // Handoff silence after a complete transfer: a live source -- even one
      // that rolled the process back -- always delivers kCleanupDone or
      // kMigrateCancel within a round trip, so the source is dead and this
      // kernel holds the only complete copy.  Adopt it: restart locally.
      // (Sec. 1's crash-migration scenario, driven by the watchdog.)
      stats_.Add(StatId::kMigrationsAdopted);
      events_.Emit<FrEvent::kDestAdopted>(pid, source_machine);
      if (FlightRecorder* ring = tracer_.ring()) {
        ring->Trigger("watchdog adopt");
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

void Kernel::TimeoutMigrationAtSource(const ProcessId& pid, SimDuration deadline) {
  auto it = migration_sources_.find(pid);
  if (it == migration_sources_.end()) {
    return;
  }
  const MachineId destination = it->second.destination;
  const std::uint32_t attempt = it->second.attempt;
  stats_.Add(StatId::kMigrationsTimedOut);
  events_.Emit<FrEvent::kWatchdogTimeout>(pid, deadline, destination);
  addressing_.OnPeerGiveUp(destination);
  // Tell the destination -- if it ever comes back -- to discard the partial
  // image; the attempt epoch makes a late or duplicate cancel a no-op.
  ByteWriter w;
  w.Pid(pid);
  w.U32(attempt);
  events_.Emit<FrEvent::kCancelSent>(pid, destination);
  if (FlightRecorder* ring = tracer_.ring()) {
    ring->Trigger("watchdog cancel");
  }
  SendFromKernel(KernelAddress(destination), MsgType::kMigrateCancel, w.Take());
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
  events_.Emit<FrEvent::kCancelReceived>(pid, it->second.source);
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
  events_.Emit<FrEvent::kDestReaped>(pid, dest.source);
  if (FlightRecorder* ring = tracer_.ring()) {
    ring->Trigger("migration reap");
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

}  // namespace demos
