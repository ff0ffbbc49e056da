// E1 -- Administrative cost of migration (Sec. 6).
//
// Paper: "The current DEMOS/MP implementation uses 9 such messages, each
// message being in the 6-12 byte range.  These messages use the standard
// inter-machine message facility."
//
// This bench migrates processes of several sizes and counts the control
// messages and their payload bytes, separated from the bulk state transfer.

#include "bench/bench_util.h"

namespace demos {
namespace {

void Run(bench::TraceSink& trace) {
  bench::RegisterEverything();
  bench::Title("E1", "administrative messages per migration");
  bench::PaperClaim("9 administrative messages per migration, 6-12 bytes each");

  bench::Table table({"image KiB", "admin msgs", "payload B (min/mean/max)", "admin wire B",
                      "data packets", "data bytes"});

  for (std::uint32_t kib : {1u, 4u, 16u, 64u, 256u}) {
    ClusterConfig config{.machines = 2};
    trace.Configure(config);
    Cluster cluster(config);
    auto addr = cluster.kernel(0).SpawnProcess("idle", kib * 1024 / 2, kib * 1024 / 4,
                                               kib * 1024 / 4);
    if (!addr.ok()) {
      continue;
    }
    cluster.RunUntilIdle();

    bench::StatDelta admin(cluster, stat::kAdminMsgs);
    bench::StatDelta admin_bytes(cluster, stat::kAdminBytes);
    bench::StatDelta packets(cluster, stat::kDataPackets);
    bench::StatDelta data_bytes(cluster, stat::kDataBytes);
    bench::MigrateNow(cluster, addr->pid, 0, 1);

    const StatTotals total = cluster.TotalStats();
    const auto sizes = total.histograms.find("admin_payload_bytes");
    std::string size_summary = "-";
    if (sizes != total.histograms.end()) {
      const HistogramSnapshot& h = sizes->second;
      size_summary =
          bench::Num(h.min) + "/" + bench::Num(h.Mean(), 1) + "/" + bench::Num(h.max);
    }
    table.Row({bench::Num(kib), bench::Num(admin.Get()), size_summary,
               bench::Num(admin_bytes.Get()), bench::Num(packets.Get()),
               bench::Num(data_bytes.Get())});
    trace.Collect(cluster);
  }
  table.Print();
  bench::Note("admin message count is size-independent (9), as in the paper; our offer");
  bench::Note("message carries three 32-bit section sizes, so payloads span 6-20 B vs 6-12 B.");
}

}  // namespace
}  // namespace demos

int main(int argc, char** argv) {
  demos::bench::TraceSink trace(argc, argv);
  demos::Run(trace);
  trace.Finish();
  return 0;
}
