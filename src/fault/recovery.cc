#include "src/fault/recovery.h"

#include "src/base/log.h"

namespace demos {

Status StableStore::Checkpoint(Cluster& cluster, const ProcessId& pid) {
  const MachineId home = cluster.HostOf(pid);
  if (home == kNoMachine) {
    return NotFoundError("no live copy of " + pid.ToString() + " to checkpoint");
  }
  Result<Kernel::ProcessCheckpoint> snapshot = cluster.kernel(home).CheckpointProcess(pid);
  if (!snapshot.ok()) {
    return snapshot.status();
  }
  checkpoints_[pid] = Saved{std::move(*snapshot), home};
  return OkStatus();
}

Status StableStore::RecoverProcess(Cluster& cluster, const ProcessId& pid,
                                   MachineId destination, bool leave_forwarding) {
  auto it = checkpoints_.find(pid);
  if (it == checkpoints_.end()) {
    return NotFoundError("no checkpoint for " + pid.ToString());
  }
  const Saved& saved = it->second;

  Status adopted = cluster.kernel(destination).AdoptProcess(saved.checkpoint);
  if (!adopted.ok()) {
    return adopted;
  }
  // When the crashed home reboots, messages routed to it must chase the
  // recovered process: pre-install the forwarding address in its retained
  // state (the paper's stable-storage recovery of forwarding addresses).
  if (leave_forwarding && saved.home != kNoMachine && saved.home != destination) {
    cluster.kernel(saved.home).addressing().ForceForwardingAddress(pid, destination);
  }
  DEMOS_LOG(kInfo, "fault") << "recovered " << pid.ToString() << " from m" << saved.home
                            << " onto m" << destination;
  return OkStatus();
}

}  // namespace demos
