// The DEMOS/MP kernel (Sec. 2).
//
// One Kernel instance runs per simulated machine.  It implements the
// primitive objects of the system -- processes, messages, links -- and
// cooperates with the kernels on other machines to provide the
// location-transparent message facility.  The kernel has a pseudo-process
// identity (local id 0) and sends/receives messages like any process.
//
// Migration-specific logic (Sec. 3-5) is implemented in migration.cc; message
// routing, scheduling, bulk data movement, and kernel calls in kernel.cc; the
// Context implementation programs see is in context.cc.
//
// Instrumentation: counters go to stats_ (StatsRegistry); every logged
// moment is one Emit<FrEvent::k...>() call against the event catalog
// (src/obs/events.h), which feeds the tracer and the flight recorder; the
// checker's KernelObserver hooks receive live records and sections.

#ifndef DEMOS_KERNEL_KERNEL_H_
#define DEMOS_KERNEL_KERNEL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/ids.h"
#include "src/base/rng.h"
#include "src/base/stats.h"
#include "src/base/status.h"
#include "src/kernel/data_mover.h"
#include "src/kernel/message.h"
#include "src/kernel/observer.h"
#include "src/kernel/process.h"
#include "src/net/transport.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/trace.h"
#include "src/proc/program.h"
#include "src/sim/event_queue.h"

namespace demos {

class Kernel;

// Parsed form of a kMigrateOffer payload; also what acceptance policies see.
struct MigrateOffer {
  ProcessId pid;
  MachineId source = kNoMachine;
  std::uint32_t resident_bytes = 0;
  std::uint32_t swappable_bytes = 0;
  std::uint32_t memory_bytes = 0;
};

struct KernelConfig {
  // How messages addressed to a departed process are handled (Sec. 4):
  // forwarding addresses (the paper's mechanism) or the return-to-sender
  // alternative it argues against (kept as a baseline for the E6 bench).
  enum class DeliveryMode { kForwarding, kReturnToSender };
  DeliveryMode delivery_mode = DeliveryMode::kForwarding;

  // Lazy link update (Sec. 5).  Disabled for the ablation arm of E5/E6.
  bool link_update_enabled = true;

  // Forwarding-address garbage collection (Sec. 4 future work):
  //   kKeepForever     -- the paper's implementation ("we have not found it
  //                       necessary to remove forwarding addresses").
  //   kOnProcessDeath  -- backward pointers along the migration path retire
  //                       every forwarding address when the process exits.
  //   kExpireAfterTtl  -- age out forwarding addresses; traffic that later
  //                       hits a missing address falls back to a locate
  //                       round trip against the creating machine's location
  //                       registry ("some system-wide name service", Sec. 4).
  enum class ForwardingGc { kKeepForever, kOnProcessDeath, kExpireAfterTtl };
  ForwardingGc forwarding_gc = ForwardingGc::kKeepForever;
  SimDuration forwarding_ttl_us = 10'000'000;

  // ---- Churn-proof addressing (forwarding GC, chain collapse, gossip). ----

  // Resting bound on forwarding-chain length.  Collapse-on-traversal keeps
  // chains short under traffic (any delivery that crossed >= 2 records
  // re-points every intermediate at the final owner); this bound is enforced
  // even for idle chains: when a migration would make the resting chain reach
  // max_chain_hops, the source collapses the oldest hop immediately.  <= 0
  // disables both (chains grow one record per migration, as in the paper).
  int max_chain_hops = 4;

  // Epoch-based reclamation of forwarding records and registry tombstones.
  // Each record tracks the peers that may still hold stale links (seeded from
  // the pending-queue senders at migration time, grown by forwarded traffic);
  // link-update acks retire peers.  A traffic-amortized sweeper reclaims a
  // record once its peer set drains and it is older than the grace window, or
  // unconditionally once it ages past the churn-epoch watermark; a hard cap
  // with LRU eviction bounds memory even when acks are lost.  Orthogonal to
  // forwarding_gc (which stays as the paper-era policy knob): reclamation
  // runs in every mode except when disabled here.
  bool forwarding_reclaim_enabled = true;
  SimDuration reclaim_grace_us = 2'000'000;
  SimDuration reclaim_watermark_us = 30'000'000;
  std::size_t forwarding_record_cap = 4096;
  std::size_t tombstone_cap = 8192;

  // Epidemic location service: kernels push (pid, machine, migration-version)
  // triples to gossip_fanout random known peers whenever their own registry
  // advances, and piggyback up to gossip_max_triples additional registry
  // entries per push as anti-entropy.  Pushes are rate-limited to one flush
  // per gossip_interval_us per kernel (deferred rumors flush on the next
  // routed message), and a triple is only re-rumored by a kernel whose
  // registry it advanced -- so gossip quiesces once every reachable kernel
  // has converged, and no standing timers are armed.
  bool gossip_enabled = true;
  int gossip_fanout = 2;
  SimDuration gossip_interval_us = 20'000;
  std::size_t gossip_max_triples = 16;

  // Locate-probe retry/backoff.  The first probes target the creating
  // machine; subsequent attempts rotate over non-suspect known peers (any
  // kernel answers kLocateReq from its gossip-fed registry), with jittered
  // exponential backoff per attempt.  After locate_max_attempts the parked
  // messages are bounced to their senders (graceful degradation when every
  // known holder is suspect or dead).  <= 1 restores the old single-probe
  // behavior.
  std::uint32_t locate_max_attempts = 8;
  SimDuration locate_retry_base_us = 4'000;

  // Cluster size hint (machine ids are dense [0, cluster_machines)); filled
  // by both engines via DeriveKernelConfig.  Lets locate probes fall back to
  // rotating over the whole membership when gossip has not yet introduced
  // the holder.  0 = unknown (probe only known peers).
  int cluster_machines = 0;

  // Move-data facility chunk size (Sec. 6: "larger packets ... increasing
  // effective network throughput").
  std::size_t data_packet_bytes = 1024;

  // Move-data ack batching: the applying kernel sends one cumulative ack per
  // this many packets (plus a flush on the final packet, on errors, and when
  // the target freezes for migration).  1 = the paper's one-ack-per-packet.
  std::size_t data_window_packets = 8;

  // CPU model: fixed dispatch overhead plus a default handler cost (programs
  // add more via Context::ChargeCpu).
  SimDuration dispatch_overhead_us = 20;
  SimDuration default_handler_cpu_us = 30;

  // Simulated real-memory capacity; exceeding it makes the kernel refuse
  // incoming migrations and process creations (Sec. 3.2 autonomy).
  std::uint64_t memory_limit_bytes = 64ull * 1024 * 1024;

  // Optional veto over incoming migrations (autonomous/interdomain kernels,
  // Sec. 3.2).  Null means accept whenever memory allows.
  std::function<bool(const MigrateOffer&)> accept_migration;

  // Test-only fault injection: mutate a message on each forwarding hop, after
  // the next-hop patch but before transmission.  Models a buggy forwarding
  // implementation so the chaos tests can prove the invariant checker catches
  // one.  Null (the default) in all production configurations.
  std::function<void(Message&)> forward_fault;

  // A halted kernel normally drops incoming wire frames (the crashed state;
  // the sequential engine's reliable layer retransmits them until revival or
  // give-up).  With this set, the frames are parked instead and replayed by
  // SetHalted(false) -- the crash-window behavior for transports with no
  // retransmission, i.e. the parallel engine's ShardRouter.
  bool park_wire_when_halted = false;

  // Per-phase migration deadlines (the watchdog of docs/PROTOCOL.md "Failure
  // model & rollback").  0 disables a phase's deadline -- the default.
  // Deadlines are virtual-time policies: under the parallel engine, arming
  // any phase auto-enables conservative virtual-time sync
  // (ParallelClusterConfig::sync), which keeps the shard clocks mutually
  // consistent so a deadline can only fire for a real stall.  A deadline
  // measures *progress*, not total elapsed time: each protocol step or data
  // ack observed for the migration resets the phase clock.
  struct MigrationDeadlines {
    SimDuration offer_accept_us = 0;       // source: offer sent -> accept/reject
    SimDuration transfer_progress_us = 0;  // both ends: gap between transfer events
    SimDuration handoff_us = 0;            // dest: transfer-complete -> cleanup-done
  };
  MigrationDeadlines migration_deadlines;

  // Base backoff applied to a peer after a reliable-channel give-up or a
  // migration watchdog timeout; doubles per consecutive strike.  While a peer
  // is suspect, StartMigration toward it is refused without freezing.
  SimDuration suspect_backoff_us = 500'000;

  std::uint64_t seed = 1;
};

class Kernel {
 public:
  Kernel(MachineId machine, EventQueue* queue, Transport* transport, KernelConfig config);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  MachineId machine() const { return machine_; }
  ProcessAddress kernel_address() const { return KernelAddress(machine_); }

  // Attach a passive monitor (invariant checker).  Not owned; null detaches.
  void SetObserver(KernelObserver* observer) { observer_ = observer; }
  // Attach this kernel's shard-local flight recorder (src/obs).  Not owned;
  // null detaches.  Catalog rows flagged for the ring (migration edges,
  // watchdog verdicts, suspect-list updates, addressing) land in it; all are
  // recorded from this kernel's own thread, preserving the recorder's
  // single-writer contract.
  void SetFlightRecorder(FlightRecorder* flight) { flight_ = flight; }
  EventQueue& queue() { return queue_; }
  Rng& rng() { return rng_; }
  const KernelConfig& config() const { return config_; }
  StatsRegistry& stats() { return stats_; }
  const StatsRegistry& stats() const { return stats_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }

  // ---- Harness-level services (used by tests, benches, system bring-up). ----

  // Create a process running registered program `program_name`.
  Result<ProcessAddress> SpawnProcess(const std::string& program_name,
                                      std::uint32_t code_size = 4096,
                                      std::uint32_t data_size = 4096,
                                      std::uint32_t stack_size = 2048);

  // Inject a message into the delivery system with the kernel as sender.
  void SendFromKernel(ProcessAddress to, MsgType type, PayloadRef payload,
                      std::vector<Link> carry = {}, std::uint8_t flags = kLinkNone);

  // Every process created afterwards is born holding a link to the
  // switchboard in link-table slot 0 (the standard-link convention of
  // Sec. 2.3; the switchboard "is used by the system and user processes to
  // connect arbitrary processes together").
  void SetSwitchboard(const ProcessAddress& switchboard) { switchboard_ = switchboard; }
  const ProcessAddress& switchboard() const { return switchboard_; }

  // Replace this kernel's incoming-migration veto (Sec. 3.2 autonomy).
  void SetAcceptMigration(std::function<bool(const MigrateOffer&)> accept) {
    config_.accept_migration = std::move(accept);
  }

  // Ask this kernel to migrate local process `pid` to `destination`,
  // exactly as a kMigrateRequest control message would.  `requester` receives
  // the kMigrateDone notification.
  Status StartMigration(const ProcessId& pid, MachineId destination, ProcessAddress requester);

  // ---- Introspection. ----
  ProcessRecord* FindProcess(const ProcessId& pid) { return processes_.Find(pid); }
  const ProcessTable& process_table() const { return processes_; }
  // Best-effort location hint from this kernel's registry.  Creating machines
  // track every process they spawned; past hosts keep the last version they
  // saw.  kNoMachine when unknown (or tombstoned by process death).  Hints
  // can be stale -- callers must chase, not trust.
  MachineId LocationHint(const ProcessId& pid) const {
    auto it = location_registry_.find(pid);
    return it == location_registry_.end() ? kNoMachine : it->second.where;
  }

  // ---- Forwarding-record GC introspection (ClusterChecker I10, tests). ----
  // Unresolved-peer bookkeeping for one live forwarding record.
  struct ForwardingMeta {
    std::vector<MachineId> peers;  // machines that may still hold stale links
    SimTime installed_at = 0;
    SimTime last_used = 0;
    // When the peer set last became empty (0 = currently non-empty).  The
    // grace window runs from max(installed_at, peers_emptied_at); I10 uses it
    // to tell "legitimately waiting for the next sweep" from "sweeper skipped
    // an eligible record".
    SimTime peers_emptied_at = 0;
    bool HasPeer(MachineId m) const {
      for (MachineId p : peers) {
        if (p == m) {
          return true;
        }
      }
      return false;
    }
  };
  const std::unordered_map<ProcessId, ForwardingMeta, ProcessIdHash>& forwarding_meta() const {
    return fwd_meta_;
  }
  // Virtual time of the last completed reclamation sweep (0 = never swept).
  SimTime last_forwarding_sweep() const { return last_forwarding_sweep_; }
  // Registry introspection for the tombstone GC tests.
  std::size_t location_registry_size() const { return location_registry_.size(); }
  bool HasLocationTombstone(const ProcessId& pid) const {
    auto it = location_registry_.find(pid);
    return it != location_registry_.end() && it->second.where == kNoMachine;
  }
  // Negative-cache check for process sends: true when this kernel has a
  // death verdict (hard tombstone or a locate-gave-up marker) for the pid and
  // the send was answered locally with kNotDeliverable instead of burning
  // network traffic on an address nobody can resolve.
  bool RefuseSendToDead(const ProcessAddress& sender, const ProcessAddress& to, MsgType type);
  std::uint64_t memory_used() const { return memory_used_; }
  std::size_t ready_count() const;
  std::uint64_t cpu_busy_us() const { return cpu_busy_us_; }
  bool HasMigrationInProgress() const {
    return !migration_sources_.empty() || !migration_dests_.empty();
  }
  // True while this kernel has a migration in either role (the source entry
  // exists before the offer frame even leaves the machine).  The parallel
  // engine publishes this with the shard's LBTS floor each time the shard
  // blocks; while any shard is tight, every window spans only the link
  // latency instead of the wide span.  Tight windows keep migration-era
  // delivery timing exact, and bound clock skew for the deadline watchdogs
  // when any are armed; with the default all-zero MigrationDeadlines no
  // watchdog arms.  See docs/PROTOCOL.md, "Wide windows".
  bool NeedsTightTime() const { return HasMigrationInProgress(); }

  // Periodically report load to `collector` (the process manager).  NOTE:
  // this arms a self-rescheduling event, so clusters with load reports never
  // go idle -- drive them with RunFor(), not RunUntilIdle().
  void EnableLoadReports(ProcessAddress collector, SimDuration interval);
  void StopLoadReports() { load_report_interval_ = 0; }

  // ---- Fault-tolerance hooks (Sec. 1, 4; used by src/fault). ----

  // A halted kernel drops incoming packets and runs nothing -- the crashed
  // state.  Reviving restores processing of whatever state survived (this
  // models a warm reboot from stable storage, which is how the paper's
  // published-communications layer lets forwarding addresses survive a crash).
  void SetHalted(bool halted);
  bool halted() const { return halted_; }
  // Re-arm dispatching after a revive.
  void KickAllProcesses();

  // Serialize a process's three migratable sections (resident, swappable,
  // memory image) -- the checkpoint used to "migrate" a process off a
  // processor that has crashed (Sec. 1).
  struct ProcessCheckpoint {
    ProcessId pid;
    Bytes resident;
    Bytes swappable;
    Bytes image;
  };
  Result<ProcessCheckpoint> CheckpointProcess(const ProcessId& pid);

  // Reconstruct a process from a checkpoint on THIS kernel and restart it.
  Status AdoptProcess(const ProcessCheckpoint& checkpoint);

  // Install a forwarding address (test / recovery helper).  Goes through the
  // full install path so the record carries GC bookkeeping (I10).
  void ForceForwardingAddress(const ProcessId& pid, MachineId machine) {
    InstallForwardingRecord(pid, machine, 0, {});
  }

  // Dead-peer suspicion (fed by ReliableTransport give-ups and migration
  // watchdog timeouts; cleared by any later delivery from the peer).
  void OnPeerGiveUp(MachineId peer);
  bool IsPeerSuspect(MachineId peer) const {
    auto it = suspects_.find(peer);
    return it != suspects_.end() && queue_.Now() < it->second.until;
  }

  // kMigrateDone notifications addressed to this kernel's pseudo-process
  // (harnesses pass the kernel address as the migration requester).
  struct MigrateDoneInfo {
    ProcessId pid;
    StatusCode status = StatusCode::kOk;
    MachineId final_home = kNoMachine;
    SimTime at = 0;
  };
  const std::vector<MigrateDoneInfo>& migrate_done_log() const { return migrate_done_log_; }

  // ---- Message system entry points. ----

  // Transmit a fully-formed message toward receiver.last_known_machine.
  void Transmit(Message msg);

  // Delivery from the transport.  The frame is adopted, not copied: the
  // parsed message's payload aliases it.
  void OnWireDelivery(MachineId wire_src, PayloadRef wire);

 private:
  friend class KernelContext;

  // ---- Routing (Sec. 2.1, 4). ----
  void RouteIncoming(Message msg, MachineId wire_src);
  void DeliverToProcess(ProcessRecord& record, Message msg);
  void ForwardThroughAddress(Message msg, MachineId next_machine);
  void HandleAbsentReceiver(Message msg, MachineId wire_src);
  void HandleKernelMessage(Message msg, MachineId wire_src);
  void HandleControlMessage(ProcessRecord& record, Message msg);

  // ---- Scheduling / CPU model. ----
  void MaybeScheduleDispatch(ProcessRecord& record);
  void RunDispatch(ProcessId pid);
  void RunHandler(ProcessRecord& record, const std::function<void(Context&)>& body);
  void StartProgram(ProcessRecord& record);
  void FinalizeExit(const ProcessId& pid);
  void ArmTimer(ProcessRecord& record, const TimerEntry& entry);
  void EnqueueLocal(ProcessRecord& record, Message msg);

  // ---- Bulk data movement (data_mover.h). ----
  std::uint32_t AllocateTransferId() { return next_transfer_id_++; }
  // Stream `data` as a packet sequence to `to`.  `prototype` supplies the
  // mode, transfer id, and (for pushes) the self-describing write context;
  // offset/total/chunk are filled per packet.  Returns the packet count.
  std::uint32_t StreamBytes(const PayloadRef& data, DataPacket prototype,
                            const ProcessAddress& to, std::uint8_t msg_flags);
  void HandleDataPacket(Message msg);
  void HandleDataAck(const Message& msg);
  void HandleReadDataArea(ProcessRecord& record, const Message& msg);
  // Apply one self-describing push chunk to a local process's data area.
  void HandleWritePacket(ProcessRecord& record, const Message& msg);
  void OnPullComplete(IncomingPull& pull);
  // Batched-ack plumbing (see data_mover.h).
  void FlushPullAck(std::uint32_t transfer_id, IncomingPull& pull, MachineId streamer);
  void AccumulatePushAck(const DataPacket& packet, const ProcessId& target, StatusCode status);
  void FlushPushAck(std::uint64_t key);
  // Flush every pending push-ack batch aimed at `target` (it is about to
  // freeze for migration or exit; later chunks will be acked elsewhere).
  void FlushPushAcksFor(const ProcessId& target);
  void SendDataMoveDone(const ProcessAddress& instigator, std::uint64_t cookie, Status status,
                        Bytes data);

  // ---- Migration engine (migration.cc; Sec. 3). ----
  struct MigrationSource {
    ProcessAddress requester;
    MachineId destination = kNoMachine;
    ExecState prior_state = ExecState::kWaiting;
    // Snapshot sections, shared with the packets streamed from them.
    PayloadRef resident;
    PayloadRef swappable;
    PayloadRef image;
    bool accepted = false;
    // Watchdog bookkeeping: the attempt epoch stamped into this migration's
    // admin messages and the time of the last observed protocol progress.
    std::uint32_t attempt = 0;
    SimTime last_progress = 0;
  };

  struct MigrationDest {
    MachineId source = kNoMachine;
    MigrateOffer offer;
    Bytes sections[kNumMigrationSections];
    int sections_remaining = kNumMigrationSections;
    ExecState restored_state = ExecState::kWaiting;
    std::uint32_t attempt = 0;
    SimTime last_progress = 0;
    bool assembled = false;  // TransferComplete sent; awaiting CleanupDone
  };

  void HandleMigrateRequest(ProcessRecord& record, const Message& msg);
  void HandleMigrateOffer(const Message& msg);
  void HandleMigrateAccept(const Message& msg);
  void HandleMigrateReject(const Message& msg);
  void HandleMoveDataReq(const Message& msg);
  void HandleTransferComplete(const Message& msg);
  void HandleCleanupDone(const Message& msg);
  void HandleMigrateCancel(const Message& msg);
  void OnMigrationSectionReceived(const ProcessId& pid, MigrationSection section, Bytes bytes);
  void AbortMigrationAtSource(const ProcessId& pid, Status why);
  // Watchdog machinery (migration.cc): self-checking deadline events armed
  // per migration attempt; stale events (attempt mismatch) are no-ops.
  void ArmSourceWatchdog(const ProcessId& pid, std::uint32_t attempt, SimDuration delay);
  void ArmDestWatchdog(const ProcessId& pid, std::uint32_t attempt, SimDuration delay);
  void TimeoutMigrationAtSource(const ProcessId& pid, SimDuration deadline);
  // Discard a partially assembled (or orphaned-but-assembled) image at the
  // destination; held messages are re-routed back toward the source.
  void ReapMigrationDest(const ProcessId& pid, const char* why);
  void RearmMigrationWatchdogs();
  void SuspectPeer(MachineId peer);
  void FinishMigrationAtSource(const ProcessId& pid);
  void RestartMigratedProcess(const ProcessId& pid);
  void SendMigrateDone(const ProcessAddress& requester, const ProcessId& pid, MachineId final_home,
                       StatusCode status);

  // ---- Forwarding & location (Sec. 4, 5; migration.cc). ----
  void HandleLinkUpdate(ProcessRecord& record, const Message& msg);
  void HandleNotDeliverable(Message msg, MachineId wire_src);
  void HandleLocateReq(const Message& msg);
  void HandleLocateResp(const Message& msg);
  void HandleLocationRegister(const Message& msg);
  void HandleForwardingClear(const Message& msg);
  void SendLinkUpdate(const ProcessAddress& original_sender, const ProcessId& migrated,
                      MachineId new_machine);

  // ---- Churn-proof addressing (migration.cc). ----
  // Chain collapse: on delivering a message that traversed >= 2 forwarding
  // records, tell every intermediate machine to re-point straight at us.
  void EmitChainCollapse(const Message& msg);
  void SendChainCollapse(MachineId to, const ProcessId& pid, MachineId owner,
                         std::uint64_t version);
  void HandleChainCollapse(const Message& msg);
  void HandleLinkUpdateAck(const Message& msg);
  // Epoch reclamation: centralized install/erase so fwd_records_live stays
  // exact, plus the traffic-amortized sweeper (forwarding records, registry
  // tombstones, hard caps).
  void InstallForwardingRecord(const ProcessId& pid, MachineId machine, std::uint64_t version,
                               std::vector<MachineId> peers);
  void ReclaimForwardingRecord(const ProcessId& pid);
  // Drop GC bookkeeping for a record removed by a non-sweeper path (TTL
  // expiry, explicit clear, the process moving back onto this machine).
  void DropForwardingMeta(const ProcessId& pid);
  void NoteForwardingPeer(const ProcessId& pid, MachineId peer);
  void SweepAddressingState();
  // Epidemic location service.
  bool NoteLocationAdvance(const ProcessId& pid, MachineId where, std::uint64_t version);
  void FlushGossip();
  void HandleGossip(const Message& msg);
  // Locate retry/backoff.
  void ParkForLocate(const ProcessId& pid, Message msg);
  MachineId PickLocateTarget(std::uint32_t attempt, const ProcessId& pid);
  void ArmLocateRetry(const ProcessId& pid, std::uint32_t generation);
  void LocateRetryFired(const ProcessId& pid, std::uint32_t generation);
  void ResolveParkedLocate(const ProcessId& pid, MachineId where);
  void BounceParkedLocate(const ProcessId& pid);
  // Restart probe chains after a revival (chains die silently while halted).
  void ReprobeParkedLocates();

  // Kernel service messages (kernel.cc).
  void HandleCreateProcess(const Message& msg);

  // Admin-message helper: transmit a kernel-to-kernel migration message and
  // account it as one of the Sec. 6 administrative messages.
  void SendAdmin(const ProcessAddress& to, MsgType type, Bytes payload);

  // ---- Event points (src/obs/events.h): one call per moment feeds the
  // tracer when it is enabled and, for rows flagged for the ring, the flight
  // recorder when one is attached.  Subjects: a process (correlated on its
  // migration span), a message (on its trace id), or an explicit id/pid. ----
  template <FrEvent E>
  void Emit(std::uint64_t id, const ProcessId& pid, std::uint64_t a = 0, std::uint64_t b = 0) {
    EmitEvent<E>(tracer_, flight_, queue_.Now(), machine_, id, pid, a, b);
  }
  template <FrEvent E>
  void Emit(const ProcessId& pid, std::uint64_t a = 0, std::uint64_t b = 0) {
    Emit<E>(MigrationSpanId(pid), pid, a, b);
  }
  template <FrEvent E>
  void Emit(const Message& msg, std::uint64_t a = 0, std::uint64_t b = 0) {
    Emit<E>(msg.trace_id, msg.receiver.pid, a, b);
  }

  MachineId machine_;
  EventQueue& queue_;
  Transport* transport_;
  KernelConfig config_;
  Rng rng_;
  StatsRegistry stats_;
  Tracer tracer_;

  ProcessTable processes_;
  std::uint32_t next_local_id_ = 1;  // 0 is the kernel pseudo-process
  ProcessAddress switchboard_;
  std::uint64_t memory_used_ = 0;

  // CPU model.
  SimTime cpu_free_at_ = 0;
  std::uint64_t cpu_busy_us_ = 0;

  // Bulk transfers.
  std::uint32_t next_transfer_id_ = 1;
  std::unordered_map<std::uint32_t, OutgoingTransfer> outgoing_transfers_;
  std::unordered_map<std::uint32_t, IncomingPull> incoming_pulls_;  // keyed by local id
  // Pending push-ack batches, keyed by (streamer machine << 32) | transfer id
  // (transfer ids are allocated per streaming kernel, so the pair is unique).
  std::map<std::uint64_t, PushAckState> push_acks_;

  // Migration state machines.
  std::unordered_map<ProcessId, MigrationSource, ProcessIdHash> migration_sources_;
  std::unordered_map<ProcessId, MigrationDest, ProcessIdHash> migration_dests_;
  // Attempt epoch stamped into migration admin payloads so replies from an
  // aborted attempt (e.g. a retransmitted reject after rollback) cannot act
  // on a newer one.
  std::uint32_t next_migration_attempt_ = 1;

  // Dead-peer suspect list (exponential backoff per consecutive strike).
  struct PeerSuspicion {
    SimTime until = 0;
    std::uint32_t strikes = 0;
  };
  std::unordered_map<MachineId, PeerSuspicion> suspects_;

  // Return-to-sender mode: home-machine location registry and messages parked
  // awaiting a kLocateResp.  Entries are versioned by migration count:
  // kLocationRegister messages from successive destinations travel from
  // *different* source machines, so the transport's per-pair ordering cannot
  // keep them in sequence, and an unversioned registry could regress to a
  // stale host forever.
  struct LocationEntry {
    MachineId where = kNoMachine;
    std::uint64_t version = 0;
    SimTime updated_at = 0;  // for tombstone reclamation + registry cap
  };
  // Returns true when the entry advanced (new pid or newer version).
  bool UpdateLocation(const ProcessId& pid, MachineId where, std::uint64_t version);
  std::unordered_map<ProcessId, LocationEntry, ProcessIdHash> location_registry_;
  // Messages parked awaiting a kLocateResp, with retry/backoff bookkeeping.
  // `generation` invalidates scheduled retry events once the park resolves.
  struct ParkedLocate {
    std::vector<Message> msgs;
    std::uint32_t attempts = 0;
    std::uint32_t generation = 0;
  };
  std::unordered_map<ProcessId, ParkedLocate, ProcessIdHash> parked_for_locate_;

  // ---- Churn-proof addressing state. ----
  // Per-forwarding-record unresolved peers (see KernelConfig reclamation).
  std::unordered_map<ProcessId, ForwardingMeta, ProcessIdHash> fwd_meta_;
  SimTime last_forwarding_sweep_ = 0;
  SimTime last_gossip_flush_ = 0;
  // Registry entries advanced locally (or by gossip) and not yet pushed.
  std::unordered_map<ProcessId, LocationEntry, ProcessIdHash> pending_rumors_;
  // Machines this kernel has heard from (wire deliveries); gossip targets.
  std::vector<MachineId> known_peers_;
  void NoteKnownPeer(MachineId peer) {
    if (peer == machine_ || peer == kNoMachine) {
      return;
    }
    for (MachineId p : known_peers_) {
      if (p == peer) {
        return;
      }
    }
    known_peers_.push_back(peer);
  }

  // Load reporting.
  ProcessAddress load_collector_;
  SimDuration load_report_interval_ = 0;
  std::uint64_t cpu_busy_last_report_ = 0;

  std::vector<MigrateDoneInfo> migrate_done_log_;
  bool halted_ = false;
  // Wire frames that arrived while halted, kept only when
  // config_.park_wire_when_halted; replayed by SetHalted(false).
  std::vector<std::pair<MachineId, PayloadRef>> parked_while_halted_;
  std::uint32_t routes_since_sweep_ = 0;
  KernelObserver* observer_ = nullptr;
  FlightRecorder* flight_ = nullptr;
};

}  // namespace demos

#endif  // DEMOS_KERNEL_KERNEL_H_
