// Forwarding (Sec. 4), link update (Sec. 5), and the churn-proof addressing
// built around them: chain collapse, epoch reclamation, the gossip-fed
// location registry, and locate retry with its negative cache
// (docs/PROTOCOL.md "Addressing, forwarding GC & gossip").

#include "src/kernel/addressing.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/base/log.h"

namespace demos {

namespace {
// Cycle/livelock guard for forwarding and return-to-sender retries.
constexpr std::uint8_t kMaxForwardHops = 32;
// Hard caps behind epoch reclamation: LRU eviction of forwarding records and
// oldest-first eviction of registry tombstones bound memory even when every
// link-update ack is lost.
constexpr std::size_t kForwardingRecordCap = 4096;
constexpr std::size_t kTombstoneCap = 8192;
// Registry entries piggybacked on each gossip push as anti-entropy.
constexpr std::size_t kGossipMaxTriples = 16;
// Suspect-list backoff after a give-up; doubles per consecutive strike (up
// to 2^6).  While a peer is suspect, migrations toward it are refused.
constexpr SimDuration kSuspectBackoffUs = 500'000;

bool IsProcessSender(const ProcessAddress& sender) {
  return sender.valid() && !IsKernelPid(sender.pid);
}
}  // namespace

Addressing::Addressing(MachineId machine, const KernelConfig& config, EventQueue& queue,
                       ProcessTable& processes, Rng& rng, StatSlab& stats,
                       const KernelEvents& events, AddressingOutput& out)
    : machine_(machine),
      config_(config),
      queue_(queue),
      processes_(processes),
      rng_(rng),
      stats_(stats),
      events_(events),
      out_(out) {}

void Addressing::Send(const ProcessAddress& to, MsgType type, PayloadRef payload) {
  Message msg;
  msg.sender = KernelAddress(machine_);
  msg.receiver = to;
  msg.type = type;
  msg.payload = std::move(payload);
  out_.Transmit(std::move(msg));
}

void Addressing::ReportNotDeliverable(const ProcessAddress& sender, MsgType type,
                                      const ProcessId& pid) {
  if (!IsProcessSender(sender)) {
    return;
  }
  ByteWriter w;
  w.U16(static_cast<std::uint16_t>(type));
  w.Pid(pid);
  Send(sender, MsgType::kNotDeliverable, w.Take());
}

void Addressing::NoteBounce(const Message& msg) {
  stats_.Add(StatId::kMsgsBounced);
  events_.Emit<FrEvent::kMsgBounce>(msg, static_cast<std::uint64_t>(msg.type));
  if (observer_ != nullptr) {
    observer_->OnMessageBounce(machine_, msg);
  }
}

// A local sender's links follow every re-send made on its behalf.
void Addressing::PatchSenderLinks(const Message& original, MachineId where) {
  ProcessRecord* sender = processes_.Find(original.sender.pid);
  if (sender != nullptr && config_.link_update_enabled) {
    stats_.Add(StatId::kLinksPatched,
               sender->links.UpdateAddresses(original.receiver.pid, where));
  }
}

// ---------------------------------------------------------------------------
// Message forwarding (Sec. 4) and link update (Sec. 5).
// ---------------------------------------------------------------------------

void Addressing::Forward(ProcessTable::Entry& entry, Message&& msg, MachineId wire_src) {
  if (config_.forwarding_gc == KernelConfig::ForwardingGc::kExpireAfterTtl &&
      queue_.Now() - entry.installed_at > config_.forwarding_ttl_us) {
    // TTL garbage collection (Sec. 4 future work): drop the aged address and
    // let the locate fallback find the process.
    stats_.Add(StatId::kForwardingExpired);
    EraseForwarding(processes_.mutable_entries().find(msg.receiver.pid));
    OnAbsentReceiver(std::move(msg), wire_src);
    return;
  }
  if (msg.hop_count >= kMaxForwardHops) {
    DEMOS_LOG(kError, "forward") << "m" << machine_ << ": dropping " << msg.ToString()
                                 << " after " << int{msg.hop_count} << " hops";
    return;
  }
  msg.hop_count++;
  msg.RecordVia(machine_);  // the collapse trail: every record this crossed
  const MachineId next = entry.forward_to;
  // The sender's machine holds a stale link: the record must outlive it until
  // the link update is acked.
  if (IsProcessSender(msg.sender) && entry.gc != nullptr) {
    ProcessTable::ForwardingGc& gc = *entry.gc;
    const MachineId peer = msg.sender.last_known_machine;
    gc.last_used = queue_.Now();
    if (peer != machine_ && peer != kNoMachine &&
        std::find(gc.peers.begin(), gc.peers.end(), peer) == gc.peers.end()) {
      gc.peers.push_back(peer);
      gc.peers_emptied_at = 0;
    }
  }
  msg.receiver.last_known_machine = next;
  SendOnward(std::move(msg), next);
}

// The one forward: send `msg` on toward `next` for an address that no longer
// hosts its receiver (a forwarding record, or the registry standing in for a
// reclaimed one), and as its byproduct (Sec. 5, Fig. 5-1) tell the sending
// process's kernel to bring its links up to date.  Kernels have no link
// tables, and updating in response to an update would never terminate.
void Addressing::SendOnward(Message&& msg, MachineId next) {
  if (config_.forward_fault) {
    config_.forward_fault(msg);
  }
  stats_.Add(StatId::kMsgsForwarded);
  events_.Emit<FrEvent::kMsgForward>(msg, msg.hop_count, next);
  if (observer_ != nullptr) {
    observer_->OnMessageForward(machine_, msg, msg.receiver.last_known_machine);
  }
  const ProcessAddress original_sender = msg.sender;
  const ProcessId migrated = msg.receiver.pid;
  const bool updatable = config_.link_update_enabled && msg.type != MsgType::kLinkUpdate &&
                         IsProcessSender(original_sender);
  out_.Transmit(std::move(msg));
  if (!updatable) {
    return;
  }
  ByteWriter w;
  w.Pid(migrated);
  w.U16(next);
  Message update;
  update.sender = KernelAddress(machine_);
  update.receiver = original_sender;
  update.flags = kLinkDeliverToKernel;
  update.type = MsgType::kLinkUpdate;
  update.payload = w.Take();
  if (events_.tracer().enabled()) {
    // Pre-stamp the trace id so the send and the eventual apply (at the
    // sender's kernel) pair up into the link-update-lag histogram.
    update.trace_id = events_.tracer().NextMessageTraceId();
  }
  events_.Emit<FrEvent::kLinkUpdateSent>(update.trace_id, migrated, 0, next);
  stats_.Add(StatId::kLinkUpdateMsgs);
  out_.Transmit(std::move(update));
}

void Addressing::HandleLinkUpdate(ProcessRecord& record, const Message& msg) {
  ByteReader r(msg.payload);
  const ProcessId migrated = r.Pid();
  const MachineId new_machine = r.U16();
  const int patched = record.links.UpdateAddresses(migrated, new_machine);
  if (patched > 0) {
    stats_.Add(StatId::kLinksPatched, patched);
  }
  events_.Emit<FrEvent::kLinkUpdateApplied>(msg, static_cast<std::uint64_t>(patched));
  // Ack the forwarder so it can retire this machine from the record's
  // unresolved-peer set (epoch reclamation); without the ack the record lives
  // until the churn-epoch watermark.
  const MachineId forwarder = msg.sender.last_known_machine;
  if (config_.forwarding_reclaim_enabled && msg.sender.valid() &&
      IsKernelPid(msg.sender.pid) && forwarder != machine_ && forwarder != kNoMachine) {
    ByteWriter w;
    w.Pid(migrated);
    stats_.Add(StatId::kLinkUpdateAcks);
    Send(KernelAddress(forwarder), MsgType::kLinkUpdateAck, w.Take());
  }
}

// ---------------------------------------------------------------------------
// Absent receivers: dead letters (forwarding mode) or the return-to-sender
// baseline (Sec. 4's rejected alternative, kept for the E6 comparison).
// ---------------------------------------------------------------------------

void Addressing::OnAbsentReceiver(Message&& msg, MachineId wire_src) {
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
    NoteBounce(msg);
    ByteWriter w;
    w.Blob(msg.Serialize());
    Send(KernelAddress(wire_src), MsgType::kNotDeliverable, w.Take());
    return;
  }

  // Forwarding mode: the process terminated, or its forwarding address was
  // garbage-collected.  Consult the gossip-fed registry, then a locate round
  // trip, before declaring the message dead.
  if ((config_.forwarding_gc == KernelConfig::ForwardingGc::kExpireAfterTtl ||
       config_.forwarding_reclaim_enabled || config_.gossip_enabled) &&
      msg.hop_count < 2 * kMaxForwardHops) {
    const ProcessId pid = msg.receiver.pid;
    msg.hop_count++;
    const LocationEntry* loc = FindLocation(pid);
    if (loc != nullptr && loc->known() && loc->where != machine_) {
      // The registry stands in for the reclaimed record, so this counts (and
      // link-updates) as a forward.  It cannot misroute: entries are
      // versioned, and a stale hop just repeats this fallback one machine on.
      const MachineId where = loc->where;
      stats_.Add(StatId::kGcRerouted);
      if (pid.creating_machine != machine_) {
        stats_.Add(StatId::kGossipReroutes);  // knowledge arrived by gossip
      }
      msg.receiver.last_known_machine = where;
      SendOnward(std::move(msg), where);
      return;
    }
    if ((loc == nullptr || !loc->dead()) && pid.creating_machine != machine_) {
      ParkForLocate(pid, std::move(msg));
      return;
    }
  }

  NoteBounce(msg);  // dead for good: tell the sending process
  ReportNotDeliverable(msg.sender, msg.type, msg.receiver.pid);
}

bool Addressing::RefuseSendToDead(const ProcessAddress& sender, const ProcessAddress& to,
                                  MsgType type) {
  if (!config_.gossip_enabled && !config_.forwarding_reclaim_enabled) {
    return false;
  }
  if (!to.pid.valid() || IsKernelPid(to.pid)) {
    return false;
  }
  // Only the locate-gave-up marker refuses: this kernel already ran the full
  // bounce/locate cycle and nobody answered.  A hard tombstone takes the
  // normal bounce (one round trip), which installs the marker.  The marker
  // test runs first: almost every send finds none and skips the table lookup.
  const LocationEntry* loc = FindLocation(to.pid);
  if (loc == nullptr || !loc->gave_up() || processes_.Find(to.pid) != nullptr) {
    return false;
  }
  stats_.Add(StatId::kSendsRefused);
  ReportNotDeliverable(sender, type, to.pid);
  return true;
}

// A death verdict is reaching a local process: negative-cache it so the next
// send to the pid is refused at the source.  The marker outranks a live hint
// (kNotDeliverable is only reported after the hint and a full locate failed),
// yields to any later location news and to a tombstone, and ages out with the
// rest of the epoch state.
void Addressing::NoteDeathVerdict(const Message& msg) {
  if (!config_.gossip_enabled && !config_.forwarding_reclaim_enabled) {
    return;
  }
  ByteReader r(msg.payload);
  (void)r.U16();  // original message type
  const ProcessId dead = r.Pid();
  const LocationEntry* loc = FindLocation(dead);
  if (r.ok() && dead.valid() && processes_.Find(dead) == nullptr &&
      (loc == nullptr || !loc->dead())) {
    registry_[dead] = LocationEntry{kNoMachine, 0, queue_.Now()};
  }
}

void Addressing::HandleMessage(const Message& msg, MachineId wire_src) {
  ByteReader r(msg.payload);
  switch (msg.type) {
    case MsgType::kNotDeliverable:
      HandleNotDeliverable(msg, wire_src);
      return;
    case MsgType::kLocateResp:
      HandleLocateResp(msg);
      return;
    case MsgType::kGossip:
      HandleGossip(msg);
      return;
    case MsgType::kLocateReq: {
      const ProcessId pid = r.Pid();
      LocationEntry answer;
      if (const ProcessRecord* local = processes_.Find(pid); local != nullptr) {
        answer.where = machine_;
        answer.version = local->migration_history.size();
      } else if (const LocationEntry* loc = FindLocation(pid); loc != nullptr) {
        answer = *loc;
      }
      ByteWriter w;
      w.Pid(pid);
      w.U16(answer.where);
      w.U64(answer.version);  // a tombstone answers dead; no machine, version 0 = unknown
      Send(msg.sender, MsgType::kLocateResp, w.Take());
      return;
    }
    case MsgType::kLocationRegister: {
      // Registrations feed the epidemic too: the home machine is the
      // most-queried registry, so re-rumoring from here spreads fresh
      // locations fastest.
      const ProcessId pid = r.Pid();
      const MachineId where = r.U16();
      NoteLocationAdvance(pid, where, r.U64());
      return;
    }
    case MsgType::kForwardingClear: {
      auto& entries = processes_.mutable_entries();
      auto it = entries.find(r.Pid());
      if (it != entries.end() && it->second.IsForwarding()) {
        EraseForwarding(it);
        stats_.Add(StatId::kForwardingCleared);
      }
      return;
    }
    case MsgType::kChainCollapse: {
      const ProcessId pid = r.Pid();
      const MachineId owner = r.U16();
      const std::uint64_t version = r.U64();
      ProcessTable::Entry* entry = processes_.FindEntry(pid);
      // A reclaimed record or a process that moved back here are both newer.
      // Strictly-newer guard: a late collapse from a superseded owner must
      // not re-point the chain backwards and create a routing cycle.
      if (entry == nullptr || !entry->IsForwarding() || version <= entry->version ||
          owner == machine_) {
        return;
      }
      entry->forward_to = owner;
      entry->version = version;
      // installed_at is deliberately NOT refreshed: the epoch watermark
      // measures the record's age, and a re-point does not make it younger.
      stats_.Add(StatId::kChainCollapseApplied);
      return;
    }
    case MsgType::kLinkUpdateAck: {
      ProcessTable::Entry* entry = processes_.FindEntry(r.Pid());
      if (entry == nullptr || entry->gc == nullptr) {
        return;
      }
      auto& peers = entry->gc->peers;
      const bool was_empty = peers.empty();
      peers.erase(std::remove(peers.begin(), peers.end(), msg.sender.last_known_machine),
                  peers.end());
      if (!was_empty && peers.empty()) {
        entry->gc->peers_emptied_at = queue_.Now();
      }
      return;
    }
    default:
      return;
  }
}

void Addressing::HandleNotDeliverable(const Message& msg, MachineId wire_src) {
  ByteReader r(msg.payload);
  Result<Message> bounced = Message::Deserialize(r.BlobRef());
  if (!bounced.ok()) {
    return;
  }
  Message original = std::move(bounced).value();
  original.hop_count++;
  const ProcessId pid = original.receiver.pid;
  if (original.hop_count >= kMaxForwardHops) {
    ReportNotDeliverable(original.sender, original.type, pid);
    return;
  }

  // The process may be right here (a stale link named a machine that died
  // after it left).  Residency is ground truth: deliver before asking anyone.
  if (ProcessRecord* resident = processes_.Find(pid);
      resident != nullptr && resident->state != ExecState::kExited) {
    PatchSenderLinks(original, machine_);
    original.receiver.last_known_machine = machine_;
    out_.DeliverHere(std::move(original));
    return;
  }
  // Gossip-first: a known newer home saves the locate round trip, and lets
  // the return-to-sender baseline converge past a dead creating machine.
  const LocationEntry* loc = FindLocation(pid);
  if (loc != nullptr && loc->known() && loc->where != wire_src) {
    const MachineId where = loc->where;
    PatchSenderLinks(original, where);
    stats_.Add(StatId::kGossipReroutes);
    original.receiver.last_known_machine = where;
    out_.Transmit(std::move(original));
    return;
  }
  if (loc != nullptr && loc->dead()) {
    ReportNotDeliverable(original.sender, original.type, pid);
    return;
  }
  ParkForLocate(pid, std::move(original));
}

void Addressing::HandleLocateResp(const Message& msg) {
  ByteReader r(msg.payload);
  const ProcessId pid = r.Pid();
  LocationEntry news;
  news.where = r.U16();
  news.version = r.AtEnd() ? 0 : r.U64();

  auto it = parked_.find(pid);
  if (it == parked_.end()) {
    return;
  }
  if (news.where == machine_) {
    // A stale registry pointing back at us: treat as unknown and let the
    // retry chain rotate to another holder.
    if (config_.locate_max_attempts <= 1) {
      BounceParkedLocate(pid);
    }
    return;
  }
  if (news.known() || news.dead()) {
    NoteLocationAdvance(pid, news.where, news.version);
    SettleParked(pid, news);
    return;
  }
  // "Unknown" from one registry is final only when no retry remains.
  if (config_.locate_max_attempts <= 1 || it->second.attempts >= config_.locate_max_attempts) {
    BounceParkedLocate(pid);
  }
}

void Addressing::OnSpawned(const ProcessId& pid) { UpdateLocation(pid, machine_, 0); }

bool Addressing::OnArrival(const ProcessId& pid) {
  ProcessTable::Entry* entry = processes_.FindEntry(pid);
  if (entry == nullptr || !entry->IsForwarding()) {
    return false;
  }
  // ProcessTable::Insert then overwrites the entry in place.
  if (entry->gc != nullptr) {
    entry->gc.reset();
    stats_.Add(StatId::kFwdRecordsLive, -1);
  }
  return true;
}

void Addressing::OnRestarted(const ProcessId& pid, std::uint64_t version) {
  // The creating machine's registry is the fallback name service (Sec. 4) of
  // the return-to-sender baseline and of TTL forwarding GC.
  NoteLocationAdvance(pid, machine_, version);
  RegisterAtHome(pid, machine_, version);
}

std::vector<MachineId> Addressing::StalePeers(const MessageQueue& queue) const {
  std::vector<MachineId> peers;
  for (const Message& pending : queue) {
    if (!IsProcessSender(pending.sender)) {
      continue;
    }
    const MachineId m = pending.sender.last_known_machine;
    if (m == machine_ || m == kNoMachine ||
        std::find(peers.begin(), peers.end(), m) != peers.end()) {
      continue;
    }
    peers.push_back(m);
  }
  return peers;
}

void Addressing::OnDeparted(const ProcessId& pid, MachineId destination,
                            const std::vector<MachineId>& history,
                            std::vector<MachineId> stale_peers) {
  // This hop will be the destination's (history + 1)'th entry.
  const std::uint64_t next_version = history.size() + 1;
  // Resting-chain bound: collapse-on-traversal needs traffic, so when this
  // departure would make an idle chain reach max_chain_hops, the oldest
  // over-budget hop is told to point straight at the new home.
  if (config_.max_chain_hops > 0 && config_.link_update_enabled &&
      next_version >= static_cast<std::uint64_t>(config_.max_chain_hops)) {
    const MachineId target = history[next_version - config_.max_chain_hops];
    if (target != machine_ && target != destination) {
      SendChainCollapse(target, pid, destination, next_version);
    }
  }
  // Step 7 (Sec. 3.1): leave a forwarding address (the degenerate process
  // record of Sec. 4), or nothing in the return-to-sender baseline.  Either
  // way the departing record, and `history` with it, is freed here.
  if (config_.delivery_mode == KernelConfig::DeliveryMode::kForwarding) {
    InstallForwardingRecord(pid, destination, next_version, std::move(stale_peers));
    stats_.Add(StatId::kForwardingAddresses);
    events_.Emit<FrEvent::kForwardingInstalled>(pid, destination);
  } else {
    processes_.Erase(pid);
  }
  NoteLocationAdvance(pid, destination, next_version);
}

void Addressing::OnExit(const ProcessId& pid, const std::vector<MachineId>& history) {
  // Tombstone rather than erase: it outranks any delayed registration from an
  // earlier migration, and is rumored in case the home never comes back.
  NoteLocationAdvance(pid, kNoMachine, LocationEntry::kDeadVersion);
  RegisterAtHome(pid, kNoMachine, LocationEntry::kDeadVersion);

  if (config_.forwarding_gc == KernelConfig::ForwardingGc::kOnProcessDeath) {
    // Follow the backward pointers along the migration path (Sec. 4).
    ByteWriter w;
    w.Pid(pid);
    const PayloadRef cleared(w.Take());  // one buffer, shared by every clear
    for (MachineId m : history) {
      Send(KernelAddress(m), MsgType::kForwardingClear, cleared);
    }
  }
}

void Addressing::RegisterAtHome(const ProcessId& pid, MachineId where, std::uint64_t version) {
  if (pid.creating_machine == machine_) {
    return;
  }
  ByteWriter w;
  w.Pid(pid);
  w.U16(where);
  w.U64(version);
  Send(KernelAddress(pid.creating_machine), MsgType::kLocationRegister, w.Take());
}

void Addressing::OnPeerGiveUp(MachineId peer) {
  PeerSuspicion& suspicion = suspects_[peer];
  suspicion.strikes++;
  const std::uint32_t shift = std::min<std::uint32_t>(suspicion.strikes - 1, 6);
  suspicion.until = std::max(suspicion.until, queue_.Now() + (kSuspectBackoffUs << shift));
  stats_.Add(StatId::kPeersSuspected);
  events_.Emit<FrEvent::kPeerSuspected>(peer, ProcessId{}, peer, suspicion.until);
  DEMOS_LOG(kInfo, "migrate") << "m" << machine_ << ": suspecting m" << peer << " (strike "
                              << suspicion.strikes << ")";
}

// ---------------------------------------------------------------------------
// Forwarding entries: chain collapse and epoch reclamation.
// ---------------------------------------------------------------------------

void Addressing::CollapseChain(const ProcessRecord& record, const Message& msg) {
  // The message crossed two or more forwarding records: tell every
  // intermediate machine to re-point straight at us.  The link-update
  // ablation arm keeps chains growing exactly as the paper describes.
  if (!config_.link_update_enabled || config_.max_chain_hops <= 0) {
    return;
  }
  const ProcessId pid = msg.receiver.pid;
  const std::uint64_t version = record.migration_history.size();
  stats_.Add(StatId::kChainCollapses);
  for (std::uint8_t i = 0; i < msg.via_count && i < Message::kMaxViaSlots; ++i) {
    const MachineId via = msg.via[i];
    if (via == machine_ || via == kNoMachine) {
      continue;
    }
    events_.Emit<FrEvent::kChainCollapse>(pid, via);
    SendChainCollapse(via, pid, machine_, version);
  }
}

void Addressing::SendChainCollapse(MachineId to, const ProcessId& pid, MachineId owner,
                                   std::uint64_t version) {
  ByteWriter w;
  w.Pid(pid);
  w.U16(owner);
  w.U64(version);
  Send(KernelAddress(to), MsgType::kChainCollapse, w.Take());
}

void Addressing::InstallForwardingRecord(const ProcessId& pid, MachineId machine,
                                         std::uint64_t version, std::vector<MachineId> peers) {
  const SimTime now = queue_.Now();
  ProcessTable::Entry& entry = processes_.InstallForwardingAddress(pid, machine, now, version);
  if (entry.gc == nullptr) {
    entry.gc = std::make_unique<ProcessTable::ForwardingGc>();
    stats_.Add(StatId::kFwdRecordsLive);
  }
  entry.gc->peers = std::move(peers);
  entry.gc->last_used = now;
  entry.gc->peers_emptied_at = entry.gc->peers.empty() ? now : 0;
}

// The one way a forwarding entry leaves the table (fwd_records_live stays exact).
ProcessTable::Map::iterator Addressing::EraseForwarding(ProcessTable::Map::iterator it) {
  if (it->second.gc != nullptr) {
    stats_.Add(StatId::kFwdRecordsLive, -1);
  }
  return processes_.mutable_entries().erase(it);
}

void Addressing::Sweep() {
  const SimTime now = queue_.Now();
  const bool ttl = config_.forwarding_gc == KernelConfig::ForwardingGc::kExpireAfterTtl;
  const bool reclaim = config_.forwarding_reclaim_enabled;
  std::uint64_t records_reclaimed = 0;
  std::uint64_t tombstones_reclaimed = 0;
  std::size_t records_live = 0;
  auto& entries = processes_.mutable_entries();
  for (auto it = entries.begin(); (ttl || reclaim) && it != entries.end();) {
    const ProcessTable::Entry& entry = it->second;
    if (!entry.IsForwarding()) {
      ++it;
      continue;
    }
    if (ttl && now - entry.installed_at > config_.forwarding_ttl_us) {
      stats_.Add(StatId::kForwardingExpired);
      it = EraseForwarding(it);
      continue;
    }
    if (!reclaim || entry.gc == nullptr) {
      ++it;
      continue;
    }
    // Epoch reclamation: a drained record is kept through the grace window,
    // counted from the later of install and the ack that drained the last
    // peer (late retransmits chase the ack).  Past the watermark it goes
    // unconditionally: stragglers fall back to the locate path.
    const SimTime drained = std::max(entry.installed_at, entry.gc->peers_emptied_at);
    if ((entry.gc->peers.empty() && now - drained > config_.reclaim_grace_us) ||
        now - entry.installed_at > config_.reclaim_watermark_us) {
      it = EraseForwarding(it);
      stats_.Add(StatId::kFwdReclaimed);
      ++records_reclaimed;
    } else {
      ++records_live;
      ++it;
    }
  }

  if (reclaim) {
    // Hard cap with LRU fallback: bounded memory even when every ack is lost.
    for (; records_live > kForwardingRecordCap; --records_live) {
      auto lru = entries.end();
      for (auto it = entries.begin(); it != entries.end(); ++it) {
        if (it->second.gc != nullptr &&
            (lru == entries.end() || it->second.gc->last_used < lru->second.gc->last_used)) {
          lru = it;
        }
      }
      EraseForwarding(lru);
      stats_.Add(StatId::kFwdReclaimed);
      ++records_reclaimed;
    }

    // Registry GC: past the watermark every entry goes except live ground
    // truth -- the home machine's own entries (the locate fallback of last
    // resort) and those of processes resident here.  No registration from
    // before a death can still be in flight by then, and an old hint is at
    // best a cache a locate rebuilds.  Age is tested first: it is cheap.
    for (auto it = registry_.begin(); it != registry_.end();) {
      const bool aged = now - it->second.updated_at > config_.reclaim_watermark_us;
      const bool ground_truth =
          aged && it->second.known() &&
          (it->first.creating_machine == machine_ || processes_.Find(it->first) != nullptr);
      if (aged && !ground_truth) {
        it = registry_.erase(it);
        ++tombstones_reclaimed;
      } else {
        ++it;
      }
    }
    // Registry hard cap: evict the oldest tombstones first, never live
    // entries (they are the gossip substrate).
    while (registry_.size() > kTombstoneCap) {
      auto oldest = registry_.end();
      for (auto it = registry_.begin(); it != registry_.end(); ++it) {
        if (!it->second.known() && (oldest == registry_.end() ||
                                    it->second.updated_at < oldest->second.updated_at)) {
          oldest = it;
        }
      }
      if (oldest == registry_.end()) {
        break;  // cap exceeded by live entries alone; nothing safe to evict
      }
      registry_.erase(oldest);
      ++tombstones_reclaimed;
    }
    if (tombstones_reclaimed != 0) {
      stats_.Add(StatId::kTombstonesReclaimed, static_cast<std::int64_t>(tombstones_reclaimed));
    }
  }

  if (records_reclaimed != 0 || tombstones_reclaimed != 0) {
    events_.Emit<FrEvent::kFwdReclaim>(0, ProcessId{}, records_reclaimed, tombstones_reclaimed);
  }
  last_sweep_ = now;
}

// ---------------------------------------------------------------------------
// Epidemic location service: rumors queue when a registry entry advances and
// flush at most once per gossip_interval_us.  Only kernels a triple advanced
// re-rumor it, so the epidemic dies out with no standing timers.
// ---------------------------------------------------------------------------

bool Addressing::UpdateLocation(const ProcessId& pid, MachineId where, std::uint64_t version) {
  LocationEntry& entry = registry_[pid];
  const bool advanced =
      version > entry.version || (version == entry.version && entry.where != where);
  if (advanced) {
    entry.where = where;
    entry.version = version;
    // Only a real advance refreshes updated_at: echoed rumors must not keep
    // a tombstone young forever.
    entry.updated_at = queue_.Now();
  }
  return advanced;
}

bool Addressing::NoteLocationAdvance(const ProcessId& pid, MachineId where,
                                     std::uint64_t version) {
  if (!UpdateLocation(pid, where, version)) {
    return false;
  }
  if (!config_.gossip_enabled) {
    return true;
  }
  pending_rumors_[pid] = LocationEntry{where, version, queue_.Now()};
  if (queue_.Now() - last_gossip_flush_ >= config_.gossip_interval_us) {
    FlushGossip();
  }
  return true;
}

void Addressing::FlushGossip() {
  if (!config_.gossip_enabled || pending_rumors_.empty() || known_peers_.empty() ||
      config_.gossip_fanout <= 0) {
    return;
  }
  last_gossip_flush_ = queue_.Now();

  // Every pending rumor, plus up to kGossipMaxTriples registry entries from a
  // random start as anti-entropy (repairs peers that missed a rumor).
  std::vector<std::pair<ProcessId, LocationEntry>> triples;
  triples.reserve(pending_rumors_.size() + kGossipMaxTriples);
  for (const auto& [pid, entry] : pending_rumors_) {
    triples.emplace_back(pid, entry);
  }
  pending_rumors_.clear();
  if (!registry_.empty()) {
    std::size_t budget = kGossipMaxTriples;
    const std::size_t skip = rng_.Next() % registry_.size();
    std::size_t i = 0;
    const SimTime now = queue_.Now();
    for (const auto& [pid, entry] : registry_) {
      if (i++ < skip || budget == 0) {
        continue;
      }
      // Anti-entropy carries only entries advanced within the grace window:
      // older news could re-seed peers that already reclaimed it, and every
      // copy must stop spreading long before any copy is reclaimed.
      // Locate-gave-up markers are this kernel's own verdict, not news.
      if ((config_.forwarding_reclaim_enabled &&
           now - entry.updated_at > config_.reclaim_grace_us) ||
          (!entry.known() && !entry.dead())) {
        continue;
      }
      const ProcessId id = pid;
      if (std::none_of(triples.begin(), triples.end(),
                       [&id](const auto& triple) { return triple.first == id; })) {
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
    events_.Emit<FrEvent::kGossip>(0, ProcessId{}, peer, triples.size());
    Send(KernelAddress(peer), MsgType::kGossip, payload);
  }
}

void Addressing::HandleGossip(const Message& msg) {
  ByteReader r(msg.payload);
  const std::uint16_t count = r.U16();
  for (std::uint16_t i = 0; i < count; ++i) {
    const ProcessId pid = r.Pid();
    LocationEntry news;
    news.where = r.U16();
    news.version = r.U64();
    // Ignore triples about a process that lives HERE at an older version than
    // our own record -- and never let gossip overwrite first-hand knowledge.
    const ProcessRecord* local = processes_.Find(pid);
    if (local != nullptr && news.version <= local->migration_history.size()) {
      continue;
    }
    if (NoteLocationAdvance(pid, news.where, news.version)) {
      stats_.Add(StatId::kGossipAdvanced);
      SettleParked(pid, news);  // fresh news can settle messages parked on a probe
    }
  }
}

// ---------------------------------------------------------------------------
// Locate probes: retry with backoff, then bounce.
// ---------------------------------------------------------------------------

void Addressing::ParkForLocate(const ProcessId& pid, Message&& msg) {
  ParkedLocate& parked = parked_[pid];
  parked.msgs.push_back(std::move(msg));
  if (parked.msgs.size() > 1) {
    return;  // a probe (and its retry chain) is already in flight
  }
  parked.attempts = 1;
  Probe(pid, parked.attempts, parked.generation, /*retry=*/false);
}

MachineId Addressing::PickLocateTarget(std::uint32_t attempt, const ProcessId& pid) {
  const MachineId home = pid.creating_machine;
  // First two probes go to the creating machine -- the authoritative registry
  // -- unless it is already suspect and alternatives exist.
  const bool have_alternatives = !known_peers_.empty() || config_.cluster_machines > 1;
  if (attempt <= 2 && home != machine_ && !(IsPeerSuspect(home) && have_alternatives)) {
    return home;
  }
  // Later attempts rotate over the membership (any kernel answers from its
  // gossip-fed registry): known peers first, then the dense id space, skipping
  // suspects while any non-suspect remains.
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

// The one locate probe: ask the next target where `pid` lives, then arm the
// jittered exponential-backoff retry.
void Addressing::Probe(const ProcessId& pid, std::uint32_t attempts, std::uint32_t generation,
                       bool retry) {
  const MachineId target = PickLocateTarget(attempts, pid);
  if (retry) {
    stats_.Add(StatId::kLocateRetries);
    events_.Emit<FrEvent::kLocateRetry>(pid, target, attempts);
  }
  ByteWriter w;
  w.Pid(pid);
  Send(KernelAddress(target), MsgType::kLocateReq, w.Take());
  if (config_.locate_max_attempts <= 1) {
    return;  // single-probe behavior: the response (or silence) is final
  }
  const std::uint32_t shift = std::min<std::uint32_t>(attempts - 1, 8);
  const SimDuration base = config_.locate_retry_base_us << shift;
  const SimDuration jitter = base > 0 ? static_cast<SimDuration>(rng_.Next() % (base / 2 + 1)) : 0;
  queue_.After(base + jitter, [this, pid, generation] { LocateRetryFired(pid, generation); });
}

void Addressing::LocateRetryFired(const ProcessId& pid, std::uint32_t generation) {
  auto it = parked_.find(pid);
  if (it == parked_.end() || it->second.generation != generation) {
    return;  // resolved (or bounced) while this event was in flight
  }
  if (out_.halted()) {
    return;  // the chain dies; a revival reprobes, a permanent death loses them
  }
  // Gossip may have answered while we waited.
  if (const LocationEntry* loc = FindLocation(pid); loc != nullptr && SettleParked(pid, *loc)) {
    return;
  }
  ParkedLocate& parked = it->second;
  if (parked.attempts >= config_.locate_max_attempts) {
    stats_.Add(StatId::kLocateGaveUp);
    BounceParkedLocate(pid);
    return;
  }
  parked.attempts++;
  Probe(pid, parked.attempts, generation, /*retry=*/true);
}

void Addressing::ReprobeParkedLocates() {
  for (auto& [pid, parked] : parked_) {
    // A new generation retires any pre-outage retry event.  Attempts carry
    // over, so the give-up budget spans outages.
    parked.generation++;
    if (parked.attempts == 0) {
      parked.attempts = 1;
    }
    Probe(pid, parked.attempts, parked.generation, /*retry=*/true);
  }
}

// Settle the messages parked on `pid` from location news: re-send toward a
// home elsewhere, or bounce on a tombstone.  False when it says neither.
bool Addressing::SettleParked(const ProcessId& pid, LocationEntry news) {
  if (news.known() && news.where != machine_) {
    for (Message& original : TakeParked(pid)) {
      PatchSenderLinks(original, news.where);
      original.receiver.last_known_machine = news.where;
      if (observer_ != nullptr) {
        observer_->OnMessageForward(machine_, original, news.where);
      }
      out_.Transmit(std::move(original));
    }
    return true;
  }
  if (news.dead()) {
    BounceParkedLocate(pid);
    return true;
  }
  return false;
}

std::vector<Message> Addressing::TakeParked(const ProcessId& pid) {
  auto parked = parked_.extract(pid);
  return parked.empty() ? std::vector<Message>{} : std::move(parked.mapped().msgs);
}

void Addressing::BounceParkedLocate(const ProcessId& pid) {
  for (Message& original : TakeParked(pid)) {
    NoteBounce(original);
    ReportNotDeliverable(original.sender, original.type, pid);
  }
}

}  // namespace demos
