// E13 (extension) -- Forwarding-address garbage collection tradeoffs.
//
// Paper (Sec. 4): forwarding addresses cost 8 bytes and were never removed
// ("Given a long running system, however, some form of garbage collection
// will eventually have to be used"), with two sketched mechanisms: reference
// counts / death notifications along the migration path, and falling back to
// a name service.  This bench compares the three implemented policies over a
// long-running churn workload:
//
//   keep-forever     -- residual 8-byte records accumulate without bound
//   on-process-death -- backward pointers retire records when processes exit
//   expire-after-ttl -- records age out; stragglers use the home-registry
//                       locate fallback (costs extra messages)

#include "bench/bench_util.h"

namespace demos {
namespace {

constexpr MsgType kIncrement = static_cast<MsgType>(1003);

struct GcResult {
  std::size_t residual_forwarding = 0;
  std::int64_t forwarded = 0;
  std::int64_t expired = 0;
  std::int64_t rerouted = 0;
  std::int64_t cleared = 0;
  std::uint64_t delivered = 0;
};

GcResult RunChurn(KernelConfig::ForwardingGc gc, int generations) {
  ClusterConfig config;
  config.machines = 4;
  config.kernel.forwarding_gc = gc;
  config.kernel.forwarding_ttl_us = 40'000;
  Cluster cluster(config);

  GcResult result;
  // Each generation: spawn a worker on m0, migrate it twice (leaving two
  // forwarding addresses), poke it through its original address, then kill it.
  for (int g = 0; g < generations; ++g) {
    auto worker = cluster.kernel(0).SpawnProcess("counter", 2048, 1024, 512);
    if (!worker.ok()) {
      continue;
    }
    cluster.RunUntilIdle();
    (void)cluster.kernel(0).StartMigration(worker->pid, 1,
                                           cluster.kernel(0).kernel_address());
    cluster.RunUntilIdle();
    (void)cluster.kernel(1).StartMigration(worker->pid, 2,
                                           cluster.kernel(1).kernel_address());
    cluster.RunUntilIdle();

    cluster.kernel(3).SendFromKernel(ProcessAddress{0, worker->pid}, kIncrement, {});
    cluster.RunUntilIdle();
    ProcessRecord* record = cluster.FindProcessAnywhere(worker->pid);
    if (record != nullptr) {
      ByteReader r(record->memory.ReadData(0, 8));
      result.delivered += r.U64();
    }

    cluster.kernel(3).SendFromKernel(ProcessAddress{2, worker->pid}, MsgType::kKillProcess,
                                     {}, {}, kLinkDeliverToKernel);
    cluster.RunUntilIdle();
    cluster.RunFor(60'000);  // let TTLs lapse between generations
  }

  for (MachineId m = 0; m < 4; ++m) {
    result.residual_forwarding += cluster.kernel(m).process_table().ForwardingAddressCount();
  }
  result.forwarded = cluster.TotalStat(stat::kMsgsForwarded);
  result.expired = cluster.TotalStat("forwarding_expired");
  result.rerouted = cluster.TotalStat("gc_rerouted");
  result.cleared = cluster.TotalStat("forwarding_cleared");
  return result;
}

struct EpochResult {
  std::size_t peak_records = 0;      // max over samples of fwd records + tombstones
  std::size_t final_records = 0;     // forwarding records left at the end
  std::size_t final_tombstones = 0;  // registry tombstones left at the end
  std::int64_t reclaimed = 0;
  std::int64_t tombstones_reclaimed = 0;
  std::uint64_t delivered = 0;
};

// Unbounded churn: every generation spawns, migrates, pokes, and kills a
// worker, forever.  Without epoch reclamation the addressing state (residual
// forwarding records + registry tombstones) grows linearly with generations;
// with it the state stays under a constant ceiling.
EpochResult RunEpochChurn(bool reclaim, int generations) {
  ClusterConfig config;
  config.machines = 4;
  config.kernel.forwarding_gc = KernelConfig::ForwardingGc::kKeepForever;
  config.kernel.forwarding_reclaim_enabled = reclaim;
  config.kernel.reclaim_grace_us = 20'000;
  config.kernel.reclaim_watermark_us = 80'000;
  Cluster cluster(config);

  // Long-lived pulse targets keep cross-machine traffic flowing so the
  // amortized sweeper actually runs between generations.
  std::vector<ProcessAddress> pulses;
  for (MachineId m = 0; m < 4; ++m) {
    auto p = cluster.kernel(m).SpawnProcess("counter");
    if (p.ok()) {
      pulses.push_back(*p);
    }
  }
  cluster.RunUntilIdle();

  auto addressing_state = [&] {
    std::size_t n = 0;
    for (MachineId m = 0; m < 4; ++m) {
      n += cluster.kernel(m).process_table().ForwardingAddressCount();
      n += cluster.kernel(m).addressing().location_registry_size();
    }
    return n;
  };

  EpochResult result;
  for (int g = 0; g < generations; ++g) {
    auto worker = cluster.kernel(0).SpawnProcess("counter", 2048, 1024, 512);
    if (!worker.ok()) {
      continue;
    }
    cluster.RunUntilIdle();
    (void)cluster.kernel(0).StartMigration(worker->pid, 1,
                                           cluster.kernel(0).kernel_address());
    cluster.RunUntilIdle();
    (void)cluster.kernel(1).StartMigration(worker->pid, 2,
                                           cluster.kernel(1).kernel_address());
    cluster.RunUntilIdle();
    cluster.kernel(3).SendFromKernel(ProcessAddress{0, worker->pid}, kIncrement, {});
    cluster.RunUntilIdle();
    ProcessRecord* record = cluster.FindProcessAnywhere(worker->pid);
    if (record != nullptr) {
      ByteReader r(record->memory.ReadData(0, 8));
      result.delivered += r.U64();
    }
    cluster.kernel(3).SendFromKernel(ProcessAddress{2, worker->pid}, MsgType::kKillProcess,
                                     {}, {}, kLinkDeliverToKernel);
    cluster.RunUntilIdle();
    // Pulse traffic: 20 routed messages per generation feed the sweeper.
    for (int i = 0; i < 20; ++i) {
      cluster.kernel((i + 1) % 4).SendFromKernel(pulses[i % pulses.size()], kIncrement, {});
    }
    cluster.RunUntilIdle();
    cluster.RunFor(25'000);
    result.peak_records = std::max(result.peak_records, addressing_state());
  }

  for (MachineId m = 0; m < 4; ++m) {
    result.final_records += cluster.kernel(m).process_table().ForwardingAddressCount();
    result.final_tombstones += cluster.kernel(m).addressing().location_registry_size();
  }
  result.reclaimed = cluster.TotalStat(stat::kFwdReclaimed);
  result.tombstones_reclaimed = cluster.TotalStat(stat::kTombstonesReclaimed);
  return result;
}

void Run() {
  bench::RegisterEverything();
  bench::Title("E13", "forwarding-address GC policies over process churn (extension)");
  bench::PaperClaim("8-byte records are cheap but 'some form of garbage collection will "
                    "eventually have to be used' (Sec. 4)");

  constexpr int kGenerations = 40;
  bench::Table table({"policy", "generations", "delivered", "residual fwd records",
                      "residual bytes", "forwards", "expired", "rerouted", "death-cleared"});
  for (auto [gc, name] :
       {std::pair{KernelConfig::ForwardingGc::kKeepForever, "keep-forever"},
        std::pair{KernelConfig::ForwardingGc::kOnProcessDeath, "on-process-death"},
        std::pair{KernelConfig::ForwardingGc::kExpireAfterTtl, "expire-after-ttl"}}) {
    GcResult r = RunChurn(gc, kGenerations);
    table.Row({name, bench::Num(kGenerations), bench::Num(r.delivered),
               bench::Num(r.residual_forwarding), bench::Num(r.residual_forwarding * 8),
               bench::Num(r.forwarded), bench::Num(r.expired), bench::Num(r.rerouted),
               bench::Num(r.cleared)});
  }
  table.Print();
  bench::Note("all policies deliver every message (delivered == generations).  keep-forever");
  bench::Note("leaks 2 records per migrated-then-dead process; on-death retires them with");
  bench::Note("one notification per hop; TTL keeps zero residue but pays an occasional");
  bench::Note("locate fallback when a stale address is used after expiry.");

  // Epoch reclamation: the churn-proofing answer to the paper's open GC
  // question.  Addressing state (records + tombstones) must stay under a
  // constant ceiling no matter how many generations have churned through.
  bench::Title("E13b", "epoch reclamation bounds addressing state under endless churn");
  constexpr int kEpochGenerations = 150;
  // Hard ceiling for the reclaim-on arm: 4 machines x (a handful of in-grace
  // records + registry entries for the live pulse counters and recent
  // tombstones).  Measured peak is ~30; 96 leaves headroom without letting a
  // per-generation leak (150 generations x 3 entries ~ 450) slip through.
  constexpr std::size_t kCeiling = 96;
  bench::Table epoch({"reclamation", "generations", "delivered", "peak state",
                      "final fwd", "final registry", "records reclaimed",
                      "registry reclaimed"});
  std::size_t reclaim_peak = 0;
  std::uint64_t reclaim_delivered = 0;
  for (bool reclaim : {false, true}) {
    EpochResult r = RunEpochChurn(reclaim, kEpochGenerations);
    if (reclaim) {
      reclaim_peak = r.peak_records;
      reclaim_delivered = r.delivered;
    }
    epoch.Row({reclaim ? "on (epoch GC)" : "off", bench::Num(kEpochGenerations),
               bench::Num(r.delivered), bench::Num(r.peak_records),
               bench::Num(r.final_records), bench::Num(r.final_tombstones),
               bench::Num(r.reclaimed), bench::Num(r.tombstones_reclaimed)});
  }
  epoch.Print();
  bench::Note("'peak state' samples sum(forwarding records + registry entries) across all");
  bench::Note("machines each generation.  With reclamation off it grows linearly with");
  bench::Note("generations; with it, drained records age out after the grace period and");
  bench::Note("tombstones after the watermark, so the peak is a constant.");
  const bool pass = reclaim_peak > 0 && reclaim_peak <= kCeiling &&
                    reclaim_delivered == kEpochGenerations;
  std::printf("verdict: %s (peak %zu, ceiling %zu, delivered %llu/%d)\n",
              pass ? "PASS" : "FAIL", reclaim_peak, kCeiling,
              static_cast<unsigned long long>(reclaim_delivered), kEpochGenerations);
}

}  // namespace
}  // namespace demos

int main() {
  demos::Run();
  return 0;
}
