// Addressing: the one owner of how a message finds a process that moved
// (docs/PROTOCOL.md "Addressing, forwarding GC & gossip").  It alone installs,
// re-points and erases forwarding entries (Sec. 4) and sends link updates
// (Sec. 5), and it owns the versioned location registry and its gossip, the
// locate probes and their negative cache, and two liveness views: known peers
// (gossip targets and locate candidates, in first-heard order) and the
// suspect list.  The views stay two because a machine can be suspected before
// it was ever heard from, and must not become a gossip target then.
//
// Inputs come from the owning kernel; outputs go through AddressingOutput.  It
// draws from the kernel's Rng, writes the kernel's counters and emits through
// the kernel's KernelEvents.

#ifndef DEMOS_KERNEL_ADDRESSING_H_
#define DEMOS_KERNEL_ADDRESSING_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/base/ids.h"
#include "src/base/rng.h"
#include "src/base/stats.h"
#include "src/kernel/kernel_config.h"
#include "src/kernel/message.h"
#include "src/kernel/observer.h"
#include "src/kernel/process.h"
#include "src/obs/trace.h"
#include "src/sim/event_queue.h"

namespace demos {

// A kernel's event point (src/obs/events.h), shared by the kernel and its
// Addressing: each Emit stamps the kernel's clock and machine into the
// kernel's tracer, which feeds the flight ring it holds for ring rows.
// Subjects: a process (correlated on its migration span), a message (on its
// trace id), or an explicit id/pid.
class KernelEvents {
 public:
  KernelEvents(Tracer& tracer, const EventQueue& queue, MachineId machine)
      : tracer_(tracer), queue_(queue), machine_(machine) {}

  Tracer& tracer() const { return tracer_; }

  template <FrEvent E>
  void Emit(std::uint64_t id, const ProcessId& pid, std::uint64_t a = 0,
            std::uint64_t b = 0) const {
    EmitEvent<E>(tracer_, queue_.Now(), machine_, id, pid, a, b);
  }
  template <FrEvent E>
  void Emit(const ProcessId& pid, std::uint64_t a = 0, std::uint64_t b = 0) const {
    Emit<E>(MigrationSpanId(pid), pid, a, b);
  }
  template <FrEvent E>
  void Emit(const Message& msg, std::uint64_t a = 0, std::uint64_t b = 0) const {
    Emit<E>(msg.trace_id, msg.receiver.pid, a, b);
  }

 private:
  Tracer& tracer_;
  const EventQueue& queue_;
  MachineId machine_;
};

// What Addressing needs from its owner.
class AddressingOutput {
 public:
  virtual ~AddressingOutput() = default;
  // Hand a fully formed message to the message system.
  virtual void Transmit(Message&& msg) = 0;
  // Route a message as if it had just arrived here (its receiver lives here).
  virtual void DeliverHere(Message&& msg) = 0;
  // True while the machine is crashed: locate retries fire into nothing.
  virtual bool halted() const = 0;
};

class Addressing {
 public:
  // One registry entry.  With no machine it is one of two verdicts: a
  // tombstone (the process died; version kDeadVersion, outranks everything)
  // or the locate-gave-up marker (version 0: this kernel ran a full locate
  // and nobody answered; any later location news overrides it).
  struct LocationEntry {
    static constexpr std::uint64_t kDeadVersion = ~std::uint64_t{0};
    MachineId where = kNoMachine;
    std::uint64_t version = 0;
    SimTime updated_at = 0;  // for tombstone reclamation + registry cap
    bool known() const { return where != kNoMachine; }
    bool dead() const { return where == kNoMachine && version == kDeadVersion; }
    bool gave_up() const { return where == kNoMachine && version == 0; }
  };

  Addressing(MachineId machine, const KernelConfig& config, EventQueue& queue,
             ProcessTable& processes, Rng& rng, StatSlab& stats, const KernelEvents& events,
             AddressingOutput& out);
  // Scheduled retry events hold `this`.
  Addressing(const Addressing&) = delete;
  Addressing& operator=(const Addressing&) = delete;

  void SetObserver(KernelObserver* observer) { observer_ = observer; }

  // ---- Inputs. ----

  // Once per routed message: the amortized GC sweep and deferred gossip.
  void Tick() {
    if (++routes_since_sweep_ >= 64) {
      routes_since_sweep_ = 0;
      Sweep();
    }
    if (!pending_rumors_.empty() &&
        queue_.Now() - last_gossip_flush_ >= config_.gossip_interval_us) {
      FlushGossip();
    }
  }
  // A wire delivery proves `peer` alive.
  void HeardFrom(MachineId peer) {
    if (!suspects_.empty()) {
      suspects_.erase(peer);
    }
    if (peer != machine_ && peer != kNoMachine &&
        std::find(known_peers_.begin(), known_peers_.end(), peer) == known_peers_.end()) {
      known_peers_.push_back(peer);
    }
  }
  // A reliable-channel give-up or a migration watchdog timeout.
  void OnPeerGiveUp(MachineId peer);

  // A message reached a forwarding entry (found by the kernel's one lookup).
  void Forward(ProcessTable::Entry& entry, Message&& msg, MachineId wire_src);
  // A message reached a pid with no entry here, or an exited process.
  void OnAbsentReceiver(Message&& msg, MachineId wire_src);
  // A message is being delivered to a local process.
  void OnDeliver(const ProcessRecord& record, const Message& msg) {
    if (msg.type == MsgType::kNotDeliverable) {
      NoteDeathVerdict(msg);
    }
    if (msg.via_count >= 2) {
      CollapseChain(record, msg);
    }
  }
  // An addressing message type (kNotDeliverable ... kGossip) for this kernel.
  void HandleMessage(const Message& msg, MachineId wire_src);
  // A kLinkUpdate control message reached local process `record` (Sec. 5).
  void HandleLinkUpdate(ProcessRecord& record, const Message& msg);

  // Lifecycle notices.  OnArrival: a live record is about to take pid's
  // slot; true when it supersedes a forwarding entry.  StalePeers: senders
  // queued for a departing process, who may hold stale links.  OnDeparted
  // frees the departing record (`history` is its migration history).
  void OnSpawned(const ProcessId& pid);
  bool OnArrival(const ProcessId& pid);
  void OnRestarted(const ProcessId& pid, std::uint64_t version);
  std::vector<MachineId> StalePeers(const MessageQueue& queue) const;
  void OnDeparted(const ProcessId& pid, MachineId destination,
                  const std::vector<MachineId>& history, std::vector<MachineId> stale_peers);
  void OnExit(const ProcessId& pid, const std::vector<MachineId>& history);
  // Location news (an adoption); true when the registry advanced.
  bool NoteLocationAdvance(const ProcessId& pid, MachineId where, std::uint64_t version);
  // After a revival: restart the probe chains that died while halted.
  void ReprobeParkedLocates();

  // Negative cache for process sends: true when a locate already gave up on
  // `to` here and the send was answered locally with kNotDeliverable.
  bool RefuseSendToDead(const ProcessAddress& sender, const ProcessAddress& to, MsgType type);

  // Install a forwarding address with GC bookkeeping (tests, recovery).
  void ForceForwardingAddress(const ProcessId& pid, MachineId machine) {
    InstallForwardingRecord(pid, machine, 0, {});
  }

  // ---- Introspection (ClusterChecker, tests, benches). ----

  // Best-effort, possibly stale location hint; kNoMachine when unknown/dead.
  MachineId LocationHint(const ProcessId& pid) const {
    const LocationEntry* loc = FindLocation(pid);
    return loc == nullptr ? kNoMachine : loc->where;
  }
  bool IsPeerSuspect(MachineId peer) const {
    auto it = suspects_.find(peer);
    return it != suspects_.end() && queue_.Now() < it->second.until;
  }
  std::size_t location_registry_size() const { return registry_.size(); }
  // A tombstone or a locate-gave-up marker.
  bool HasLocationTombstone(const ProcessId& pid) const {
    const LocationEntry* loc = FindLocation(pid);
    return loc != nullptr && !loc->known();
  }
  // Virtual time of the last completed reclamation sweep (0 = never swept).
  SimTime last_forwarding_sweep() const { return last_sweep_; }

 private:
  struct PeerSuspicion {
    SimTime until = 0;
    std::uint32_t strikes = 0;
  };
  // Messages parked awaiting a kLocateResp, with retry/backoff bookkeeping.
  // `generation` invalidates scheduled retry events once the park resolves.
  struct ParkedLocate {
    std::vector<Message> msgs;
    std::uint32_t attempts = 0;
    std::uint32_t generation = 0;
  };

  const LocationEntry* FindLocation(const ProcessId& pid) const {
    auto it = registry_.find(pid);
    return it == registry_.end() ? nullptr : &it->second;
  }
  void Send(const ProcessAddress& to, MsgType type, PayloadRef payload);
  void ReportNotDeliverable(const ProcessAddress& sender, MsgType type, const ProcessId& pid);
  void NoteBounce(const Message& msg);
  void PatchSenderLinks(const Message& original, MachineId where);
  void SendOnward(Message&& msg, MachineId next);
  void RegisterAtHome(const ProcessId& pid, MachineId where, std::uint64_t version);

  void HandleNotDeliverable(const Message& msg, MachineId wire_src);
  void HandleLocateResp(const Message& msg);
  void HandleGossip(const Message& msg);

  void InstallForwardingRecord(const ProcessId& pid, MachineId machine, std::uint64_t version,
                               std::vector<MachineId> peers);
  ProcessTable::Map::iterator EraseForwarding(ProcessTable::Map::iterator it);
  void Sweep();
  void NoteDeathVerdict(const Message& msg);
  void CollapseChain(const ProcessRecord& record, const Message& msg);
  void SendChainCollapse(MachineId to, const ProcessId& pid, MachineId owner,
                         std::uint64_t version);

  bool UpdateLocation(const ProcessId& pid, MachineId where, std::uint64_t version);
  void FlushGossip();

  void ParkForLocate(const ProcessId& pid, Message&& msg);
  MachineId PickLocateTarget(std::uint32_t attempt, const ProcessId& pid);
  void Probe(const ProcessId& pid, std::uint32_t attempts, std::uint32_t generation, bool retry);
  void LocateRetryFired(const ProcessId& pid, std::uint32_t generation);
  bool SettleParked(const ProcessId& pid, LocationEntry news);
  std::vector<Message> TakeParked(const ProcessId& pid);
  void BounceParkedLocate(const ProcessId& pid);

  const MachineId machine_;
  const KernelConfig& config_;
  EventQueue& queue_;
  ProcessTable& processes_;
  Rng& rng_;
  StatSlab& stats_;
  const KernelEvents& events_;
  AddressingOutput& out_;
  KernelObserver* observer_ = nullptr;

  // Versioned by migration count: registrations from successive destinations
  // travel from different machines, so transport order cannot sequence them.
  std::unordered_map<ProcessId, LocationEntry, ProcessIdHash> registry_;
  // Registry advances not yet gossiped.
  std::unordered_map<ProcessId, LocationEntry, ProcessIdHash> pending_rumors_;
  std::vector<MachineId> known_peers_;
  std::unordered_map<MachineId, PeerSuspicion> suspects_;
  std::unordered_map<ProcessId, ParkedLocate, ProcessIdHash> parked_;
  SimTime last_sweep_ = 0;
  SimTime last_gossip_flush_ = 0;
  std::uint32_t routes_since_sweep_ = 0;
};

}  // namespace demos

#endif  // DEMOS_KERNEL_ADDRESSING_H_
