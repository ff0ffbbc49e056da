// Seed-driven chaos scenarios for the invariant checker.
//
// A 64-bit seed deterministically derives a full scenario plan -- topology,
// network pathology (loss/dup/jitter), delivery mode, workload mix, a
// schedule of migrations (including chained bursts that land mid-transfer),
// crash/recovery windows, and stale-address kernel traffic.  RunScenario
// executes the plan under a ClusterChecker, drains to quiescence, runs
// link-convergence probe rounds, and reports every violated invariant.
// Because everything derives from the seed, `chaos_fuzz --seed=N` replays a
// failure exactly; MinimizeScenario greedily disables features to shrink a
// failing plan while it still fails.

#ifndef DEMOS_CHECK_CHAOS_H_
#define DEMOS_CHECK_CHAOS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/check/invariants.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/trace.h"
#include "src/sim/event_queue.h"

namespace demos {

struct ChaosScenario {
  std::uint64_t seed = 0;

  // Topology and network pathology.
  int machines = 3;
  SimDuration propagation_us = 100;
  double bandwidth_bytes_per_us = 10.0;
  SimDuration jitter_us = 0;
  double drop_probability = 0.0;
  double duplicate_probability = 0.0;
  bool reliable = false;
  SimDuration retransmit_timeout_us = 2000;
  // 0 = retransmit forever.  Right for revival-window scenarios (a crash
  // stalls delivery, never kills it); permanent-death scenarios use a finite
  // count so frames into the corpse reach the transport's give-up verdict.
  std::uint32_t max_retries = 0;

  // 0 = migration watchdogs disabled (no permanent failure to time out).
  // Permanent-death scenarios arm all three per-phase deadlines with this.
  SimDuration migration_deadline_us = 0;

  // Kernel policy.
  bool forwarding_mode = true;  // false: return-to-sender baseline
  int gc_mode = 0;              // 0 keep-forever, 1 on-death, 2 ttl
  std::size_t data_packet_bytes = 1024;
  std::size_t data_window_packets = 8;

  // Workload plan.  Roster slot order: pingers, servers, sinks, cpu jobs,
  // then (client, server) per rpc pair.  Migration/note victims index into
  // that roster, so disabling a workload class replaces its programs with
  // idle processes instead of removing the slots.
  int pingers = 1;
  int servers = 1;
  int sinks = 0;
  std::uint32_t pinger_ticks = 6;
  std::uint32_t pinger_period_us = 3000;
  struct CpuJob {
    int machine = 0;
    std::uint64_t total_us = 30'000;
  };
  std::vector<CpuJob> cpu_jobs;
  struct RpcPair {
    int client_machine = 0;
    int server_machine = 0;
    std::uint32_t count = 10;
    std::uint32_t period_us = 2000;
  };
  std::vector<RpcPair> rpc_pairs;
  bool cpu_enabled = true;
  bool rpc_enabled = true;

  // Chaos schedule.
  SimDuration chaos_window_us = 150'000;
  struct MigrationEvent {
    SimTime at = 0;
    int victim = 0;  // roster index
    int dest_machine = 0;
  };
  std::vector<MigrationEvent> migrations;
  struct CrashEvent {
    SimTime at = 0;
    SimDuration outage_us = 10'000;
    int machine = 0;
  };
  std::vector<CrashEvent> crashes;
  struct DeathEvent {
    SimTime at = 0;
    int machine = 0;  // hard-crashes at `at` and never revives
  };
  std::vector<DeathEvent> deaths;
  struct NoteEvent {
    SimTime at = 0;
    int from_machine = 0;
    int victim = 0;  // addressed at the victim's *original* spawn address
  };
  std::vector<NoteEvent> notes;

  int RosterSize() const {
    return pingers + servers + sinks + static_cast<int>(cpu_jobs.size()) +
           2 * static_cast<int>(rpc_pairs.size());
  }
  std::string Describe() const;
};

// Derive the full plan from a seed.  Same seed, same plan, always.
ChaosScenario ScenarioFromSeed(std::uint64_t seed);

// Permanent-death variant: starts from ScenarioFromSeed(seed), then replaces
// the revival crash windows with one machine that dies mid-window and never
// comes back, arms the migration watchdogs, and gives the reliable transport
// a finite retry budget.  Exercises source rollback, destination reap/adopt,
// the suspect list, and the I8 liveness audit with dead-machine exemptions.
ChaosScenario PermanentDeathScenarioFromSeed(std::uint64_t seed);

// Churn variant: starts from ScenarioFromSeed(seed), then layers a migration
// storm (a few hot victims absorb half the schedule, so long forwarding
// chains actually form) and kill/restart cycles on most machines.  Exercises
// chain collapse, forwarding-record reclamation under stale-peer churn, and
// the gossip registry's version discipline.  With `permadeath` one machine's
// death becomes permanent mid-window (composing `--churn --permadeath`).
ChaosScenario ChurnScenarioFromSeed(std::uint64_t seed, bool permadeath = false);

// Feature axes the minimizer (and --disable=) can turn off.
enum class ChaosFeature {
  kCrashes,
  kDrop,
  kDuplicates,
  kJitter,
  kNotes,
  kCpuWorkload,
  kRpcWorkload,
  kHalveMigrations,
  kHalveCrashes,
  kNone,
};

const char* ChaosFeatureName(ChaosFeature feature);
ChaosFeature ChaosFeatureFromName(const std::string& name);

// Apply one disable-transform; returns false if the feature was not active
// (nothing to remove), leaving the scenario unchanged.
bool DisableFeature(ChaosScenario* scenario, ChaosFeature feature);

// Which execution engine runs the scenario.  Both run the identical Kernel
// code and are held to the same invariants (I1-I8 plus link convergence);
// what differs is the surrounding runtime:
//   kSequential -- one virtual clock, SimNetwork pathology (drop/dup/jitter),
//                  optional reliable transport.  Byte-exact replay per seed.
//   kParallel   -- one thread per kernel under conservative virtual-time
//                  sync.  The ShardRouter is a lossless in-memory fabric, so
//                  the scenario's drop/dup/jitter knobs and the reliable
//                  layer do not apply; crashed kernels park in-flight frames
//                  (KernelConfig::park_wire_when_halted) instead of relying
//                  on retransmission.  Timing is real-concurrency dependent,
//                  so replay is invariant-exact, not byte-exact.
enum class ChaosEngineKind {
  kSequential,
  kParallel,
};

struct ChaosOptions {
  ChaosEngineKind engine = ChaosEngineKind::kSequential;
  bool collect_trace = true;
  // Run every kernel with an attached flight recorder (virtual-clock stamped,
  // so dumps are deterministic) and carry the merged window in the result.
  bool collect_flight = true;
  // Fault injection threaded into every kernel (KernelConfig::forward_fault).
  std::function<void(Message&)> forward_fault;
};

struct ChaosResult {
  std::vector<Violation> violations;
  bool quiescent = true;
  bool converged = true;          // steady-state forward count returned to 0
  int probe_rounds = 0;           // rounds until convergence
  std::size_t events_executed = 0;
  std::uint64_t messages_tracked = 0;
  std::vector<EventRecord> trace;  // full cluster timeline (collect_trace)
  // Merged flight-recorder window (collect_flight) and the latched dump
  // reason: the first of watchdog adopt/cancel/reap or "invariant failure".
  // Null trigger = nothing went wrong.
  std::vector<EventRecord> flight;
  const char* flight_trigger = nullptr;
  std::vector<std::uint64_t> suspect_trace_ids;
  std::vector<ProcessId> suspect_pids;

  bool ok() const { return violations.empty(); }
};

ChaosResult RunScenario(const ChaosScenario& scenario, const ChaosOptions& options = {});

struct MinimizeResult {
  ChaosScenario scenario;
  std::vector<ChaosFeature> disabled;
  int halvings = 0;        // times the migration list was cut in half
  int crash_halvings = 0;  // times the crash schedule was cut in half
  int runs = 0;            // scenario executions spent minimizing
};

// Greedy shrink: try each disable-transform once (halving repeatedly), keep
// those under which the scenario still fails.  `failing` must already fail
// under `options`.
MinimizeResult MinimizeScenario(const ChaosScenario& failing, const ChaosOptions& options = {});

}  // namespace demos

#endif  // DEMOS_CHECK_CHAOS_H_
