// Per-kernel configuration, read by the kernel and by its Addressing.

#ifndef DEMOS_KERNEL_KERNEL_CONFIG_H_
#define DEMOS_KERNEL_KERNEL_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <functional>

#include "src/base/ids.h"
#include "src/kernel/message.h"
#include "src/sim/event_queue.h"

namespace demos {

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

  // Epoch-based reclamation of forwarding records and registry tombstones,
  // in every forwarding_gc mode.  A record tracks the peers that may still
  // hold stale links (pending-queue senders, then forwarded traffic) until
  // link-update acks retire them; a traffic-amortized sweeper reclaims it
  // once its peer set drains and the grace window passes, or past the
  // churn-epoch watermark.  A hard cap bounds memory even when acks are lost.
  bool forwarding_reclaim_enabled = true;
  SimDuration reclaim_grace_us = 2'000'000;
  SimDuration reclaim_watermark_us = 30'000'000;

  // Epidemic location service: kernels push (pid, machine, migration-version)
  // triples to gossip_fanout random known peers whenever their own registry
  // advances, plus a few registry entries as anti-entropy, at most once per
  // gossip_interval_us (deferred rumors flush on the next routed message).
  // Only a kernel a triple advanced re-rumors it, so gossip quiesces.
  bool gossip_enabled = true;
  int gossip_fanout = 2;
  SimDuration gossip_interval_us = 20'000;

  // Locate-probe retry/backoff.  The first probes target the creating
  // machine; later ones rotate over non-suspect known peers, with jittered
  // exponential backoff.  After locate_max_attempts the parked messages are
  // bounced to their senders.  <= 1 restores the old single-probe behavior.
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

  // Test-only fault injection: mutate a message on each forwarding hop --
  // through a forwarding record or a registry reroute -- after the next-hop
  // patch but before transmission.  Models a buggy forwarding implementation
  // so the chaos tests can prove the invariant checker catches one.  Null
  // (the default) in all production configurations.
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

  std::uint64_t seed = 1;
};

}  // namespace demos

#endif  // DEMOS_KERNEL_KERNEL_CONFIG_H_
