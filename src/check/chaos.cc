#include "src/check/chaos.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>
#include <utility>

#include "src/base/rng.h"
#include "src/fault/crash.h"
#include "src/kernel/cluster.h"
#include "src/run/parallel_cluster.h"
#include "src/workload/programs.h"

namespace demos {
namespace {

// Stale-address kernel traffic (notes are sent to the victim's original spawn
// address, so late notes ride the whole forwarding chain).
constexpr MsgType kChaosNote = static_cast<MsgType>(1205);

// Runaway backstop far above what any generated scenario executes (the
// sequential engine's event cap; the parallel engine bounds runs by wall
// clock instead, via ParallelClusterConfig::settle_timeout).
constexpr std::size_t kEventCap = 5'000'000;

void WriteConfig(Engine& engine, const ProcessAddress& addr, const Bytes& config) {
  if (!addr.valid()) {
    return;
  }
  ProcessRecord* record = engine.kernel(addr.last_known_machine).FindProcess(addr.pid);
  if (record != nullptr) {
    (void)record->memory.WriteData(0, config);
  }
}

const char* GcName(int gc_mode) {
  switch (gc_mode) {
    case 1:
      return "on-death";
    case 2:
      return "ttl";
    default:
      return "keep-forever";
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Scenario derivation.
// ---------------------------------------------------------------------------

ChaosScenario ScenarioFromSeed(std::uint64_t seed) {
  Rng rng(seed ^ 0xC4A05F00Dull);
  ChaosScenario s;
  s.seed = seed;

  s.machines = static_cast<int>(2 + rng.Below(4));  // 2..5
  s.propagation_us = 20 + rng.Below(131);           // 20..150
  s.bandwidth_bytes_per_us = 5.0 + static_cast<double>(rng.Below(46));
  s.jitter_us = rng.Chance(0.5) ? 0 : 10 + rng.Below(291);
  s.drop_probability = rng.Chance(0.5) ? 0.0 : 0.005 + 0.145 * rng.NextDouble();
  s.duplicate_probability = rng.Chance(0.7) ? 0.0 : 0.005 + 0.075 * rng.NextDouble();
  s.retransmit_timeout_us = 1000 + rng.Below(3001);

  s.forwarding_mode = !rng.Chance(0.2);
  const std::uint64_t gc_roll = rng.Below(10);
  s.gc_mode = gc_roll < 6 ? 0 : (gc_roll < 8 ? 1 : 2);
  s.data_packet_bytes = std::size_t{128} << rng.Below(6);  // 128..4096
  s.data_window_packets = 1 + rng.Below(16);
  s.chaos_window_us = 60'000 + rng.Below(190'001);

  s.pingers = static_cast<int>(1 + rng.Below(3));
  s.servers = static_cast<int>(1 + rng.Below(3));
  s.sinks = static_cast<int>(rng.Below(3));
  s.pinger_ticks = static_cast<std::uint32_t>(3 + rng.Below(8));
  s.pinger_period_us = static_cast<std::uint32_t>(2500 + rng.Below(5501));

  const std::uint64_t cpu_count = rng.Below(3);
  for (std::uint64_t i = 0; i < cpu_count; ++i) {
    ChaosScenario::CpuJob job;
    job.machine = static_cast<int>(rng.Below(static_cast<std::uint64_t>(s.machines)));
    job.total_us = 20'000 + rng.Below(60'001);
    s.cpu_jobs.push_back(job);
  }
  const std::uint64_t rpc_count = rng.Below(3);
  for (std::uint64_t i = 0; i < rpc_count; ++i) {
    ChaosScenario::RpcPair pair;
    pair.client_machine = static_cast<int>(rng.Below(static_cast<std::uint64_t>(s.machines)));
    pair.server_machine = static_cast<int>(rng.Below(static_cast<std::uint64_t>(s.machines)));
    pair.count = static_cast<std::uint32_t>(5 + rng.Below(16));
    pair.period_us = static_cast<std::uint32_t>(1000 + rng.Below(3001));
    s.rpc_pairs.push_back(pair);
  }

  const auto roster = static_cast<std::uint64_t>(s.RosterSize());
  const std::uint64_t migration_count = 4 + rng.Below(22);
  for (std::uint64_t i = 0; i < migration_count; ++i) {
    ChaosScenario::MigrationEvent ev;
    ev.at = 5000 + rng.Below(s.chaos_window_us - 5000);
    ev.victim = static_cast<int>(rng.Below(roster));
    ev.dest_machine = static_cast<int>(rng.Below(static_cast<std::uint64_t>(s.machines)));
    s.migrations.push_back(ev);
  }
  if (rng.Chance(0.6)) {
    // A chained burst: back-to-back requests for one victim, spaced so the
    // follow-ups land while the first transfer is still streaming.
    const int victim = static_cast<int>(rng.Below(roster));
    SimTime at = 5000 + rng.Below(s.chaos_window_us - 5000);
    const std::uint64_t burst = 2 + rng.Below(2);
    for (std::uint64_t i = 0; i < burst; ++i) {
      ChaosScenario::MigrationEvent ev;
      ev.at = at;
      ev.victim = victim;
      ev.dest_machine = static_cast<int>(rng.Below(static_cast<std::uint64_t>(s.machines)));
      s.migrations.push_back(ev);
      at += 150 + rng.Below(500);
    }
  }
  std::stable_sort(s.migrations.begin(), s.migrations.end(),
                   [](const auto& a, const auto& b) { return a.at < b.at; });

  if (rng.Chance(0.5)) {
    const std::uint64_t crash_count = 1 + rng.Below(2);
    std::vector<SimTime> busy_until(static_cast<std::size_t>(s.machines), 0);
    for (std::uint64_t i = 0; i < crash_count; ++i) {
      ChaosScenario::CrashEvent ev;
      ev.machine = static_cast<int>(rng.Below(static_cast<std::uint64_t>(s.machines)));
      ev.at = 10'000 + rng.Below(s.chaos_window_us);
      ev.outage_us = 5000 + rng.Below(35'001);
      if (ev.at < busy_until[static_cast<std::size_t>(ev.machine)]) {
        continue;  // would overlap an existing outage of the same machine
      }
      busy_until[static_cast<std::size_t>(ev.machine)] = ev.at + ev.outage_us + 1000;
      s.crashes.push_back(ev);
    }
  }

  const std::uint64_t note_count = rng.Below(12);
  for (std::uint64_t i = 0; i < note_count; ++i) {
    ChaosScenario::NoteEvent ev;
    ev.at = 2000 + rng.Below(s.chaos_window_us);
    ev.from_machine = static_cast<int>(rng.Below(static_cast<std::uint64_t>(s.machines)));
    ev.victim = static_cast<int>(rng.Below(roster));
    s.notes.push_back(ev);
  }

  // The reliable layer is mandatory whenever the network can drop, duplicate,
  // or reorder frames, or a machine can crash while frames are in flight;
  // otherwise it joins the rotation like any other knob.
  s.reliable = s.drop_probability > 0.0 || s.duplicate_probability > 0.0 || s.jitter_us > 0 ||
               !s.crashes.empty() || rng.Chance(0.25);
  return s;
}

ChaosScenario PermanentDeathScenarioFromSeed(std::uint64_t seed) {
  ChaosScenario s = ScenarioFromSeed(seed);
  // A separate stream keeps the base plan byte-identical to ScenarioFromSeed.
  Rng rng(seed ^ 0xDEADD00Dull);
  if (s.machines < 3) {
    s.machines = 3;  // the death must leave >= 2 live machines to migrate between
  }
  s.crashes.clear();  // one permanent death replaces the revival windows
  s.reliable = true;
  // Both delivery modes stay in rotation: the epidemic location service lets
  // even the return-to-sender baseline converge past a corpse (bounces
  // resolve against the gossip registry instead of retrying the grave).
  // Finite retries let the transport reach its give-up verdict on frames into
  // the corpse.  Loss between *live* machines must stay impossible in
  // practice, so cap the drop rate: at 8% drop, 12 retries leave a frame-loss
  // probability around 1e-13 -- below one expected loss across the nightly
  // sweep.
  s.drop_probability = std::min(s.drop_probability, 0.08);
  s.max_retries = static_cast<std::uint32_t>(12 + rng.Below(8));
  s.migration_deadline_us = 60'000 + rng.Below(140'001);
  ChaosScenario::DeathEvent death;
  death.at = 10'000 + rng.Below(s.chaos_window_us);
  death.machine = static_cast<int>(rng.Below(static_cast<std::uint64_t>(s.machines)));
  s.deaths.push_back(death);
  return s;
}

ChaosScenario ChurnScenarioFromSeed(std::uint64_t seed, bool permadeath) {
  ChaosScenario s = ScenarioFromSeed(seed);
  // A separate stream keeps the base plan byte-identical to ScenarioFromSeed.
  Rng rng(seed ^ 0xC598A5701Dull);
  if (s.machines < 3) {
    s.machines = 3;
  }
  s.chaos_window_us = std::max<SimDuration>(s.chaos_window_us, 200'000);
  const auto machines = static_cast<std::uint64_t>(s.machines);

  // Migration storm: hot victims absorb half the schedule so real chains form
  // (hop upon hop for one pid); the rest sprays across the roster.
  const auto roster = static_cast<std::uint64_t>(s.RosterSize());
  const int hot = static_cast<int>(rng.Below(roster));
  const std::uint64_t storm = 24 + rng.Below(25);  // 24..48 extra migrations
  for (std::uint64_t i = 0; i < storm; ++i) {
    ChaosScenario::MigrationEvent ev;
    ev.at = 5000 + rng.Below(s.chaos_window_us - 5000);
    ev.victim = rng.Chance(0.5) ? hot : static_cast<int>(rng.Below(roster));
    ev.dest_machine = static_cast<int>(rng.Below(machines));
    s.migrations.push_back(ev);
  }
  std::stable_sort(s.migrations.begin(), s.migrations.end(),
                   [](const auto& a, const auto& b) { return a.at < b.at; });

  // Kill/restart cycles: short repeated outages on up to machines-1 machines;
  // at least one machine never cycles, so migrations always have somewhere to
  // land.  Outages stay under 8ms so the reliable layer's retry budget (when
  // finite, below) always outlasts them -- loss between reviving machines
  // would be a harness artifact, not a protocol bug.
  s.crashes.clear();
  const int cyclers = 1 + static_cast<int>(rng.Below(machines - 1));
  const int first_cycler = static_cast<int>(rng.Below(machines));
  for (int c = 0; c < cyclers; ++c) {
    const int machine = (first_cycler + c) % s.machines;
    SimTime at = 15'000 + rng.Below(40'001);
    const std::uint64_t cycles = 2 + rng.Below(3);
    for (std::uint64_t i = 0; i < cycles && at < s.chaos_window_us; ++i) {
      ChaosScenario::CrashEvent ev;
      ev.machine = machine;
      ev.at = at;
      ev.outage_us = 4000 + rng.Below(4001);  // 4..8ms
      s.crashes.push_back(ev);
      at += ev.outage_us + 10'000 + rng.Below(25'001);
    }
  }
  std::stable_sort(s.crashes.begin(), s.crashes.end(),
                   [](const auto& a, const auto& b) { return a.at < b.at; });
  s.reliable = true;
  s.max_retries = 0;  // every outage revives; retransmit through it

  if (permadeath) {
    // One machine's death becomes permanent mid-window.  Its kill/restart
    // cycles are dropped (a revival would resurrect the corpse); everyone
    // else keeps cycling.  Retry budget: >= 16 retries at rto >= 1000us
    // outlasts any 8ms cycle outage while still reaching the give-up verdict
    // on frames into the corpse.
    s.drop_probability = std::min(s.drop_probability, 0.08);
    s.max_retries = static_cast<std::uint32_t>(16 + rng.Below(8));
    s.migration_deadline_us = 60'000 + rng.Below(140'001);
    ChaosScenario::DeathEvent death;
    death.at = 20'000 + rng.Below(s.chaos_window_us - 20'000);
    death.machine = static_cast<int>(rng.Below(machines));
    s.deaths.push_back(death);
    s.crashes.erase(std::remove_if(s.crashes.begin(), s.crashes.end(),
                                   [&](const ChaosScenario::CrashEvent& ev) {
                                     return ev.machine == death.machine;
                                   }),
                    s.crashes.end());
  }
  return s;
}

std::string ChaosScenario::Describe() const {
  std::ostringstream os;
  os << "seed=" << seed << " machines=" << machines << " window=" << chaos_window_us << "us\n";
  os << "  net: prop=" << propagation_us << "us bw=" << bandwidth_bytes_per_us
     << "B/us jitter=" << jitter_us << "us drop=" << drop_probability
     << " dup=" << duplicate_probability << " reliable=" << (reliable ? 1 : 0)
     << " rto=" << retransmit_timeout_us << "us\n";
  os << "  kernel: mode=" << (forwarding_mode ? "forwarding" : "return-to-sender")
     << " gc=" << GcName(gc_mode) << " packet=" << data_packet_bytes
     << "B window=" << data_window_packets << "\n";
  os << "  workload: pingers=" << pingers << "(ticks=" << pinger_ticks
     << ",period=" << pinger_period_us << "us) servers=" << servers << " sinks=" << sinks
     << " cpu=" << cpu_jobs.size() << (cpu_enabled ? "" : "(disabled)")
     << " rpc=" << rpc_pairs.size() << (rpc_enabled ? "" : "(disabled)") << "\n";
  os << "  chaos: migrations=" << migrations.size() << " crashes=" << crashes.size()
     << " deaths=" << deaths.size() << " notes=" << notes.size();
  if (!deaths.empty()) {
    os << " retries=" << max_retries << " deadline=" << migration_deadline_us << "us";
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Feature axes.
// ---------------------------------------------------------------------------

const char* ChaosFeatureName(ChaosFeature feature) {
  switch (feature) {
    case ChaosFeature::kCrashes:
      return "crashes";
    case ChaosFeature::kDrop:
      return "drop";
    case ChaosFeature::kDuplicates:
      return "dup";
    case ChaosFeature::kJitter:
      return "jitter";
    case ChaosFeature::kNotes:
      return "notes";
    case ChaosFeature::kCpuWorkload:
      return "cpu";
    case ChaosFeature::kRpcWorkload:
      return "rpc";
    case ChaosFeature::kHalveMigrations:
      return "halve-migrations";
    case ChaosFeature::kHalveCrashes:
      return "halve-crashes";
    case ChaosFeature::kNone:
      break;
  }
  return "none";
}

ChaosFeature ChaosFeatureFromName(const std::string& name) {
  for (ChaosFeature f :
       {ChaosFeature::kCrashes, ChaosFeature::kDrop, ChaosFeature::kDuplicates,
        ChaosFeature::kJitter, ChaosFeature::kNotes, ChaosFeature::kCpuWorkload,
        ChaosFeature::kRpcWorkload, ChaosFeature::kHalveMigrations,
        ChaosFeature::kHalveCrashes}) {
    if (name == ChaosFeatureName(f)) {
      return f;
    }
  }
  return ChaosFeature::kNone;
}

bool DisableFeature(ChaosScenario* scenario, ChaosFeature feature) {
  switch (feature) {
    case ChaosFeature::kCrashes:
      if (scenario->crashes.empty() && scenario->deaths.empty()) {
        return false;
      }
      scenario->crashes.clear();
      scenario->deaths.clear();
      return true;
    case ChaosFeature::kDrop:
      if (scenario->drop_probability == 0.0) {
        return false;
      }
      scenario->drop_probability = 0.0;
      return true;
    case ChaosFeature::kDuplicates:
      if (scenario->duplicate_probability == 0.0) {
        return false;
      }
      scenario->duplicate_probability = 0.0;
      return true;
    case ChaosFeature::kJitter:
      if (scenario->jitter_us == 0) {
        return false;
      }
      scenario->jitter_us = 0;
      return true;
    case ChaosFeature::kNotes:
      if (scenario->notes.empty()) {
        return false;
      }
      scenario->notes.clear();
      return true;
    case ChaosFeature::kCpuWorkload:
      if (!scenario->cpu_enabled || scenario->cpu_jobs.empty()) {
        return false;
      }
      scenario->cpu_enabled = false;
      return true;
    case ChaosFeature::kRpcWorkload:
      if (!scenario->rpc_enabled || scenario->rpc_pairs.empty()) {
        return false;
      }
      scenario->rpc_enabled = false;
      return true;
    case ChaosFeature::kHalveMigrations:
      // Keep the earliest half (the list is time-sorted).
      if (scenario->migrations.size() <= 1) {
        return false;
      }
      scenario->migrations.resize(scenario->migrations.size() / 2);
      return true;
    case ChaosFeature::kHalveCrashes:
      // Keep the earliest half of the kill/restart schedule (time-sorted).
      if (scenario->crashes.size() <= 1) {
        return false;
      }
      scenario->crashes.resize(scenario->crashes.size() / 2);
      return true;
    case ChaosFeature::kNone:
      break;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------------

namespace {

// The kernel half of the scenario, shared verbatim by both engines except
// that parallel kernels park wire frames while halted: the ShardRouter is a
// lossless in-memory fabric with no retransmission, so a crashed kernel must
// hold incoming frames for replay at revival instead of counting on a
// reliable layer to resend them.
KernelConfig ScenarioKernelConfig(const ChaosScenario& s, const ChaosOptions& options) {
  KernelConfig kc;
  kc.seed = s.seed;
  if (s.migration_deadline_us > 0) {
    kc.migration_deadlines.offer_accept_us = s.migration_deadline_us;
    kc.migration_deadlines.transfer_progress_us = s.migration_deadline_us;
    kc.migration_deadlines.handoff_us = s.migration_deadline_us;
  }
  kc.delivery_mode = s.forwarding_mode ? KernelConfig::DeliveryMode::kForwarding
                                       : KernelConfig::DeliveryMode::kReturnToSender;
  kc.forwarding_gc = s.gc_mode == 1   ? KernelConfig::ForwardingGc::kOnProcessDeath
                     : s.gc_mode == 2 ? KernelConfig::ForwardingGc::kExpireAfterTtl
                                      : KernelConfig::ForwardingGc::kKeepForever;
  // Far beyond any chaos window, so under TTL mode chains never expire
  // mid-run (an expired chain is legal but would defeat the convergence and
  // chain-completeness assertions).
  kc.forwarding_ttl_us = 60'000'000;
  kc.data_packet_bytes = s.data_packet_bytes;
  kc.data_window_packets = s.data_window_packets;
  kc.forward_fault = options.forward_fault;
  kc.park_wire_when_halted = options.engine == ChaosEngineKind::kParallel;
  return kc;
}

// One scenario's engine plus its crash seam.  Everything downstream programs
// against Engine&; what genuinely differs per engine is how a machine dies.
// The sequential engine has a network to partition (CrashController downs the
// SimNetwork node; the reliable layer retransmits around the outage), while
// the parallel fabric is lossless, so crashing is exactly SetHalted and the
// frames parked during the outage replay at revival.
struct ChaosEngine {
  std::unique_ptr<Cluster> sequential;
  std::unique_ptr<ParallelCluster> parallel;
  std::unique_ptr<CrashController> faults;  // sequential only
  Engine* engine = nullptr;

  // Crash `machine` at `at`; revive after `outage_us` (0 = never).
  void ScheduleCrash(MachineId machine, SimTime at, SimDuration outage_us) {
    if (faults) {
      CrashController* f = faults.get();
      if (outage_us > 0) {
        engine->ScheduleOn(machine, at,
                           [f, machine, outage_us] { f->CrashFor(machine, outage_us); });
      } else {
        engine->ScheduleOn(machine, at, [f, machine] { f->Crash(machine); });
      }
      return;
    }
    Engine* e = engine;
    e->ScheduleOn(machine, at, [e, machine] { e->kernel(machine).SetHalted(true); });
    if (outage_us > 0) {
      e->ScheduleOn(machine, at + outage_us, [e, machine] {
        Kernel& k = e->kernel(machine);
        k.SetHalted(false);
        k.KickAllProcesses();
      });
    }
  }
};

ChaosEngine MakeChaosEngine(const ChaosScenario& s, const ChaosOptions& options) {
  ChaosEngine out;
  if (options.engine == ChaosEngineKind::kParallel) {
    ParallelClusterConfig pc;
    pc.machines = s.machines;
    pc.kernel = ScenarioKernelConfig(s, options);
    pc.trace_enabled = true;  // trace ids are the checker's message identity
    pc.metrics_enabled = true;
    pc.flight_recorder_enabled = options.collect_flight;
    // Conservative sync always on: the checker's ordering invariants and the
    // migration watchdogs only mean anything when no shard can receive a
    // frame in its virtual past.  The scenario's propagation delay doubles as
    // the cluster lookahead, so cross-shard frames arrive at send +
    // propagation on the receiver's clock, as the SimNetwork would deliver
    // them.  The drop/dup/jitter knobs and the reliable layer do not apply.
    pc.sync.enabled = true;
    pc.sync.min_link_latency_us = s.propagation_us == 0 ? 1 : s.propagation_us;
    // Wall-clock runaway bound, the parallel analog of kEventCap.
    pc.settle_timeout = std::chrono::milliseconds(60'000);
    out.parallel = std::make_unique<ParallelCluster>(pc);
    out.engine = out.parallel.get();
    return out;
  }
  ClusterConfig cc;
  cc.machines = s.machines;
  cc.network.propagation_us = s.propagation_us;
  cc.network.bandwidth_bytes_per_us = s.bandwidth_bytes_per_us;
  cc.network.jitter_us = s.jitter_us;
  cc.network.drop_probability = s.drop_probability;
  cc.network.duplicate_probability = s.duplicate_probability;
  cc.network.seed = s.seed ^ 0x5EED0DE5ull;
  cc.reliable_layer = s.reliable;
  cc.reliable.retransmit_timeout_us = s.retransmit_timeout_us;
  // 0 = never give up: a revival crash window stalls delivery, never kills
  // it.  Permanent-death scenarios set a finite budget instead.
  cc.reliable.max_retries = s.max_retries;
  cc.kernel = ScenarioKernelConfig(s, options);
  cc.trace_enabled = true;  // trace ids are the checker's message identity
  // Flight recorders: one per kernel plus the harness slot (index
  // s.machines) for the reliable channel and the checker verdict, stamped
  // with the virtual clock so a replayed seed produces a byte-identical dump.
  cc.flight_recorder_enabled = options.collect_flight;
  out.sequential = std::make_unique<Cluster>(cc);
  out.faults = std::make_unique<CrashController>(out.sequential.get());
  out.engine = out.sequential.get();
  return out;
}

// Migration-request chase.  The harness used to look up HostOf(victim)
// inside the event and start the migration from wherever the victim happened
// to be -- an instantaneous cluster-wide scan, only legal when the whole
// cluster shares one thread.  The request now behaves like the
// kernel-addressed control message it models: it lands on the victim's
// creating machine and chases the victim one hop at a time -- forwarding
// address first, the hop machine's location registry as the return-to-sender
// fallback -- paying one propagation delay per hop.  Identical logic on both
// engines; under the parallel engine every step runs on the owning shard's
// thread.
constexpr int kChaseTtl = 16;

void ScheduleMigrationChase(Engine* engine, MachineId at_machine, SimTime at, ProcessId pid,
                            MachineId dest, SimDuration hop_us, int ttl) {
  engine->ScheduleOn(at_machine, at, [engine, at_machine, pid, dest, hop_us, ttl] {
    Kernel& k = engine->kernel(at_machine);
    if (k.halted() || ttl <= 0) {
      return;  // the request died with its host, or wandered past its budget
    }
    if (k.FindProcess(pid) != nullptr) {
      (void)k.StartMigration(pid, dest, k.kernel_address());
      return;
    }
    MachineId next = kNoMachine;
    const ProcessTable::Entry* entry = k.process_table().FindEntry(pid);
    if (entry != nullptr && entry->IsForwarding()) {
      next = entry->forward_to;
    } else {
      next = k.addressing().LocationHint(pid);  // return-to-sender mode erases the entry
    }
    if (next == kNoMachine || next == at_machine) {
      return;  // gone for good (e.g. died with its machine)
    }
    ScheduleMigrationChase(engine, next, k.queue().Now() + hop_us, pid, dest, hop_us, ttl - 1);
  });
}

}  // namespace

ChaosResult RunScenario(const ChaosScenario& s, const ChaosOptions& options) {
  RegisterWorkloadPrograms();

  ChaosEngine harness = MakeChaosEngine(s, options);
  Engine& engine = *harness.engine;
  ClusterChecker checker(&engine);
  engine.SetObserver(&checker);

  // ---- Roster (slot order documented in ChaosScenario). ----
  std::vector<ProcessAddress> roster;
  std::vector<ProcessAddress> pinger_addrs;
  std::vector<ProcessAddress> server_addrs;
  auto spawn = [&](int machine, const char* program) {
    auto addr = engine.kernel(static_cast<MachineId>(machine % s.machines)).SpawnProcess(program);
    if (!addr.ok()) {
      // Keep the roster slot (victim indices must stay stable); an invalid
      // address makes every event targeting this slot a deterministic no-op.
      roster.push_back(ProcessAddress{});
      return ProcessAddress{};
    }
    roster.push_back(*addr);
    checker.ExpectLive(addr->pid);
    return *addr;
  };
  for (int i = 0; i < s.pingers; ++i) {
    const ProcessAddress addr = spawn(i, "chaos_pinger");
    ChaosPingerConfig cfg;
    cfg.ticks = s.pinger_ticks;
    cfg.period_us = s.pinger_period_us;
    WriteConfig(engine, addr, cfg.Encode());
    pinger_addrs.push_back(addr);
  }
  for (int i = 0; i < s.servers; ++i) {
    server_addrs.push_back(spawn(i + 1, "rpc_server"));
  }
  for (int i = 0; i < s.sinks; ++i) {
    spawn(i + 2, "sink");
  }
  for (const ChaosScenario::CpuJob& job : s.cpu_jobs) {
    const ProcessAddress addr = spawn(job.machine, s.cpu_enabled ? "cpu_bound" : "idle");
    if (s.cpu_enabled) {
      CpuBoundConfig cfg;
      cfg.total_us = job.total_us;
      WriteConfig(engine, addr, cfg.Encode());
    }
  }
  for (const ChaosScenario::RpcPair& pair : s.rpc_pairs) {
    const ProcessAddress client = spawn(pair.client_machine, s.rpc_enabled ? "rpc_client" : "idle");
    const ProcessAddress server = spawn(pair.server_machine, s.rpc_enabled ? "rpc_server" : "idle");
    if (s.rpc_enabled && client.valid() && server.valid()) {
      RpcClientConfig cfg;
      cfg.count = pair.count;
      cfg.period_us = pair.period_us;
      cfg.payload_bytes = 64;
      WriteConfig(engine, client, cfg.Encode());
      Link to_server;
      to_server.address = server;
      engine.kernel(client.last_known_machine)
          .SendFromKernel(client, kAttachTarget, {}, {to_server});
    }
  }
  for (const ProcessAddress& pinger : pinger_addrs) {
    for (const ProcessAddress& server : server_addrs) {
      if (!pinger.valid() || !server.valid()) {
        continue;
      }
      Link to_server;
      to_server.address = server;
      engine.kernel(pinger.last_known_machine)
          .SendFromKernel(pinger, kAttachTarget, {}, {to_server});
    }
  }

  // ---- Chaos schedule (everything staged pre-run via ScheduleOn). ----
  const SimDuration hop_us = s.propagation_us == 0 ? 1 : s.propagation_us;
  for (const ChaosScenario::MigrationEvent& ev : s.migrations) {
    const ProcessAddress victim = roster[static_cast<std::size_t>(ev.victim)];
    if (!victim.valid()) {
      continue;
    }
    ScheduleMigrationChase(&engine, victim.pid.creating_machine, ev.at, victim.pid,
                           static_cast<MachineId>(ev.dest_machine), hop_us, kChaseTtl);
  }
  for (const ChaosScenario::CrashEvent& ev : s.crashes) {
    harness.ScheduleCrash(static_cast<MachineId>(ev.machine), ev.at, ev.outage_us);
  }
  for (const ChaosScenario::DeathEvent& ev : s.deaths) {
    harness.ScheduleCrash(static_cast<MachineId>(ev.machine), ev.at, 0);
  }
  for (const ChaosScenario::NoteEvent& ev : s.notes) {
    const ProcessAddress target = roster[static_cast<std::size_t>(ev.victim)];
    if (!target.valid()) {
      continue;
    }
    const auto from = static_cast<MachineId>(ev.from_machine);
    Engine* e = &engine;
    engine.ScheduleOn(from, ev.at,
                      [e, from, target] { e->kernel(from).SendFromKernel(target, kChaosNote, {}); });
  }

  // ---- Drain. ----
  ChaosResult result;
  const SettleResult settle = engine.RunUntilSettled(kEventCap);
  result.events_executed = settle.events;
  result.quiescent = settle.settled;
  if (!result.quiescent) {
    result.violations.push_back(
        Violation{"quiescence", "cluster still live after " +
                                    std::to_string(result.events_executed) + " events"});
  }

  // ---- Link-convergence probes (I5's active half): re-probing every pinger
  // must drive the per-round forward+bounce delta to zero within a chain
  // length's worth of rounds, since every probe that crosses a forwarding
  // address strictly advances the pinger's link toward the live host.
  if (result.quiescent && !pinger_addrs.empty() && !server_addrs.empty()) {
    const int max_rounds = s.machines + 3;
    bool converged = false;
    for (int round = 0; round < max_rounds && !converged; ++round) {
      const std::int64_t before =
          engine.TotalStat(stat::kMsgsForwarded) + engine.TotalStat(stat::kMsgsBounced);
      for (const ProcessAddress& pinger : pinger_addrs) {
        const MachineId host = engine.HostOf(pinger.pid);
        if (host == kNoMachine || engine.kernel(host).halted()) {
          continue;  // lost (ownership audit's problem) or died with its machine
        }
        Engine* e = &engine;
        const ProcessId pid = pinger.pid;
        engine.Execute(host, [e, host, pid] {
          e->kernel(host).SendFromKernel(ProcessAddress{host, pid}, kChaosProbe, {});
        });
      }
      if (!engine.RunUntilSettled(kEventCap).settled) {
        ++result.probe_rounds;
        break;  // a live cluster would race the counter reads below
      }
      ++result.probe_rounds;
      const std::int64_t after =
          engine.TotalStat(stat::kMsgsForwarded) + engine.TotalStat(stat::kMsgsBounced);
      if (std::getenv("CHAOS_DEBUG_CONVERGENCE") != nullptr) {
        std::fprintf(stderr, "round %d: t=%lld fwd=%lld bounce=%lld parked=%lld gaveup=%lld\n",
                     round, (long long)engine.kernel(0).queue().Now(),
                     (long long)engine.TotalStat(stat::kMsgsForwarded),
                     (long long)engine.TotalStat(stat::kMsgsBounced),
                     (long long)engine.TotalStat(stat::kLocateRetries),
                     (long long)engine.TotalStat(stat::kLocateGaveUp));
      }
      converged = after == before;
    }
    result.converged = converged;
    if (!converged) {
      result.violations.push_back(
          Violation{"link-convergence",
                    "steady-state forward/bounce count still nonzero after " +
                        std::to_string(result.probe_rounds) + " probe rounds"});
    }
  }

  // ---- Audit (the engine is settled; shard threads, if any, are parked). ----
  for (const ChaosScenario::DeathEvent& ev : s.deaths) {
    checker.MarkMachineDead(static_cast<MachineId>(ev.machine));
  }
  const std::vector<Violation> audit = checker.CheckAtQuiescence();
  result.violations.insert(result.violations.end(), audit.begin(), audit.end());
  result.messages_tracked = checker.tracked_messages();
  result.suspect_trace_ids = checker.suspect_trace_ids();
  result.suspect_pids = checker.suspect_pids();
  if (options.collect_trace) {
    result.trace = engine.TotalTrace().events();
  }
  if (FlightRecorderHub* flight = options.collect_flight ? engine.flight_recorder() : nullptr) {
    if (!result.violations.empty()) {
      // Mark the verdict in the harness slot, then latch; if a watchdog
      // already latched adopt/cancel/reap mid-run, that earlier reason wins.
      flight->recorder(s.machines).Record(FrEvent::kInvariantFail, result.violations.size());
      flight->Trigger("invariant failure");
    }
    result.flight = flight->Merged();
    result.flight_trigger = flight->reason();
  }
  engine.SetObserver(nullptr);
  return result;
}

// ---------------------------------------------------------------------------
// Greedy minimization.
// ---------------------------------------------------------------------------

MinimizeResult MinimizeScenario(const ChaosScenario& failing, const ChaosOptions& options) {
  MinimizeResult result;
  result.scenario = failing;

  ChaosOptions quiet = options;
  quiet.collect_trace = false;
  quiet.collect_flight = false;
  auto still_fails = [&](const ChaosScenario& candidate) {
    ++result.runs;
    return !RunScenario(candidate, quiet).ok();
  };

  for (ChaosFeature feature :
       {ChaosFeature::kCrashes, ChaosFeature::kDuplicates, ChaosFeature::kDrop,
        ChaosFeature::kJitter, ChaosFeature::kNotes, ChaosFeature::kCpuWorkload,
        ChaosFeature::kRpcWorkload}) {
    ChaosScenario candidate = result.scenario;
    if (!DisableFeature(&candidate, feature)) {
      continue;
    }
    if (still_fails(candidate)) {
      result.scenario = candidate;
      result.disabled.push_back(feature);
    }
  }
  while (true) {
    ChaosScenario candidate = result.scenario;
    if (!DisableFeature(&candidate, ChaosFeature::kHalveMigrations)) {
      break;
    }
    if (!still_fails(candidate)) {
      break;
    }
    result.scenario = candidate;
    ++result.halvings;
  }
  while (true) {
    ChaosScenario candidate = result.scenario;
    if (!DisableFeature(&candidate, ChaosFeature::kHalveCrashes)) {
      break;
    }
    if (!still_fails(candidate)) {
      break;
    }
    result.scenario = candidate;
    ++result.crash_halvings;
  }
  return result;
}

}  // namespace demos
