// The DEMOS/MP kernel (Sec. 2).
//
// One Kernel instance runs per simulated machine.  It implements the
// primitive objects of the system -- processes, messages, links -- and
// cooperates with the kernels on other machines to provide the
// location-transparent message facility.  The kernel has a pseudo-process
// identity (local id 0) and sends/receives messages like any process.
//
// The migration protocol (Sec. 3) is in migration.cc; routing, scheduling,
// bulk data movement, and kernel calls in kernel.cc; the Context programs see
// in context.cc.  Finding a process that moved (Sec. 4-5) belongs to the
// Addressing component the kernel owns (addressing.h).
//
// Instrumentation: counters go to stats_ (StatSlab); every logged
// moment is one Emit<FrEvent::k...>() call against the event catalog
// (src/obs/events.h), which feeds the tracer and the flight recorder; the
// checker's KernelObserver hooks receive live records and sections.

#ifndef DEMOS_KERNEL_KERNEL_H_
#define DEMOS_KERNEL_KERNEL_H_

#include <cstdint>
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
#include "src/kernel/addressing.h"
#include "src/kernel/data_mover.h"
#include "src/kernel/kernel_config.h"
#include "src/kernel/message.h"
#include "src/kernel/observer.h"
#include "src/kernel/process.h"
#include "src/net/transport.h"
#include "src/obs/trace.h"
#include "src/proc/program.h"
#include "src/sim/event_queue.h"

namespace demos {

class Kernel final : private AddressingOutput {
 public:
  Kernel(MachineId machine, EventQueue* queue, Transport* transport, KernelConfig config);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  MachineId machine() const { return machine_; }
  ProcessAddress kernel_address() const { return KernelAddress(machine_); }

  // Attach a passive monitor (invariant checker).  Not owned; null detaches.
  void SetObserver(KernelObserver* observer) {
    observer_ = observer;
    addressing_.SetObserver(observer);
  }
  EventQueue& queue() { return queue_; }
  Rng& rng() { return rng_; }
  const KernelConfig& config() const { return config_; }
  const StatSlab& stats() const { return stats_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }
  Addressing& addressing() { return addressing_; }
  const Addressing& addressing() const { return addressing_; }

  // ---- Harness-level services (used by tests, benches, system bring-up). ----

  // Create a process running registered program `program_name`.
  Result<ProcessAddress> SpawnProcess(const std::string& program_name,
                                      std::uint32_t code_size = 4096,
                                      std::uint32_t data_size = 4096,
                                      std::uint32_t stack_size = 2048);

  // Inject a message into the delivery system with the kernel as sender.
  void SendFromKernel(ProcessAddress to, MsgType type, PayloadRef payload,
                      CarriedLinks carry = {}, std::uint8_t flags = kLinkNone);

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
  bool halted() const override { return halted_; }
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
  void Transmit(Message&& msg) override;

  // Delivery from the transport.  The frame is adopted, not copied: the
  // parsed message's payload aliases it.
  void OnWireDelivery(MachineId wire_src, PayloadRef wire);

 private:
  friend class KernelContext;

  // ---- Routing (Sec. 2.1, 4). ----
  // The message path takes each message by rvalue reference: the one decoded
  // in OnWireDelivery is routed, queued or forwarded without moving it
  // between stages.
  void RouteIncoming(Message&& msg, MachineId wire_src);
  void DeliverHere(Message&& msg) override { RouteIncoming(std::move(msg), machine_); }
  void DeliverToProcess(ProcessRecord& record, Message&& msg);
  void HandleKernelMessage(Message&& msg, MachineId wire_src);
  void HandleControlMessage(ProcessRecord& record, Message&& msg);

  // ---- Scheduling / CPU model. ----
  void MaybeScheduleDispatch(ProcessRecord& record);
  void RunDispatch(ProcessId pid);
  template <typename Body>
  void RunHandler(ProcessRecord& record, const Body& body);
  void StartProgram(ProcessRecord& record);
  void FinalizeExit(const ProcessId& pid);
  void ArmTimer(ProcessRecord& record, const TimerEntry& entry);
  void EnqueueLocal(ProcessRecord& record, Message&& msg);

  // ---- Bulk data movement (data_mover.h). ----
  std::uint32_t AllocateTransferId() { return next_transfer_id_++; }
  // Stream `data` as a packet sequence to `to`.  `prototype` supplies the
  // mode, transfer id, and (for pushes) the self-describing write context;
  // offset/total/chunk are filled per packet.  Returns the packet count.
  std::uint32_t StreamBytes(const PayloadRef& data, DataPacket prototype,
                            const ProcessAddress& to, std::uint8_t msg_flags);
  void HandleDataPacket(const Message& msg);
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
  void FinishMigrationAtSource(const ProcessId& pid);
  void RestartMigratedProcess(const ProcessId& pid);
  void SendMigrateDone(const ProcessAddress& requester, const ProcessId& pid, MachineId final_home,
                       StatusCode status);

  // Kernel service messages (kernel.cc).
  void HandleCreateProcess(const Message& msg);

  MachineId machine_;
  EventQueue& queue_;
  Transport* transport_;
  KernelConfig config_;
  Rng rng_;
  StatSlab stats_;
  // Also holds the kernel's shard-local flight ring (tracer().set_ring):
  // catalog rows flagged for the ring (migration edges, watchdog verdicts,
  // suspect-list updates, addressing) land in it, all from this kernel's own
  // thread, preserving the ring's single-writer contract.
  Tracer tracer_;
  KernelEvents events_;

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

  // Declared after everything it references (config, queue, tables, rng,
  // counters, tracer).
  Addressing addressing_;

  // Load reporting.
  ProcessAddress load_collector_;
  SimDuration load_report_interval_ = 0;
  std::uint64_t cpu_busy_last_report_ = 0;

  std::vector<MigrateDoneInfo> migrate_done_log_;
  bool halted_ = false;
  // Wire frames that arrived while halted, kept only when
  // config_.park_wire_when_halted; replayed by SetHalted(false).
  std::vector<std::pair<MachineId, PayloadRef>> parked_while_halted_;
  KernelObserver* observer_ = nullptr;
};

}  // namespace demos

#endif  // DEMOS_KERNEL_KERNEL_H_
