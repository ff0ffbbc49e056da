// Microbenchmarks (google-benchmark): wall-clock cost of the simulator's hot
// paths -- message serialization, local/remote delivery, bulk streaming, and
// a complete migration.  These measure the reproduction itself (host CPU
// time), complementing the virtual-time experiment benches.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/obs/metrics.h"

namespace demos {
namespace {

constexpr MsgType kNote = static_cast<MsgType>(1005);

void RegisterOnce() {
  static const bool done = [] {
    bench::RegisterEverything();
    ProgramRegistry::Instance().Register("micro_idle", [] {
      class Idle : public Program {};
      return std::make_unique<Idle>();
    });
    return true;
  }();
  (void)done;
}

void BM_MessageSerializeRoundTrip(benchmark::State& state) {
  Message msg;
  msg.sender = ProcessAddress{0, {0, 1}};
  msg.receiver = ProcessAddress{1, {1, 2}};
  msg.type = kNote;
  msg.payload = Bytes(static_cast<std::size_t>(state.range(0)), 0x5A);
  for (auto _ : state) {
    Result<Message> back = Message::Deserialize(msg.Serialize());
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(msg.WireSize()));
}
BENCHMARK(BM_MessageSerializeRoundTrip)->Arg(16)->Arg(256)->Arg(4096);

// The zero-copy pipeline: a received frame is re-framed for the next hop by
// patching three header fields in place.  Compare with the legacy-shaped
// round trip above, and report the payload pipeline's own counters
// (allocations + copied bytes per hop) -- the numbers the tentpole claims.
void BM_MessageForwardHop(benchmark::State& state) {
  PayloadRef frame;
  {
    Message m;
    m.sender = ProcessAddress{0, {0, 1}};
    m.receiver = ProcessAddress{1, {1, 2}};
    m.type = kNote;
    m.payload = Bytes(static_cast<std::size_t>(state.range(0)), 0x5A);
    frame = m.Frame();
  }
  Result<Message> received = Message::Deserialize(std::move(frame));
  Message msg = std::move(received).value();
  PayloadCounters::Reset();
  std::uint64_t hops = 0;
  for (auto _ : state) {
    msg.receiver.last_known_machine = static_cast<MachineId>(msg.receiver.last_known_machine ^ 1);
    msg.hop_count = static_cast<std::uint8_t>(hops & 0x1F);
    benchmark::DoNotOptimize(msg.Frame());
    ++hops;
  }
  state.counters["allocs_per_hop"] =
      benchmark::Counter(static_cast<double>(PayloadCounters::allocations),
                         benchmark::Counter::kAvgIterations);
  state.counters["copied_bytes_per_hop"] =
      benchmark::Counter(static_cast<double>(PayloadCounters::copied_bytes),
                         benchmark::Counter::kAvgIterations);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_MessageForwardHop)->Arg(16)->Arg(256)->Arg(4096);

// Legacy shape of the same hop: full re-serialize + re-parse per hop.  The
// counter ratio against BM_MessageForwardHop is the headline reduction.
void BM_MessageForwardHopReserialize(benchmark::State& state) {
  Message msg;
  msg.sender = ProcessAddress{0, {0, 1}};
  msg.receiver = ProcessAddress{1, {1, 2}};
  msg.type = kNote;
  msg.payload = Bytes(static_cast<std::size_t>(state.range(0)), 0x5A);
  PayloadCounters::Reset();
  for (auto _ : state) {
    msg.receiver.last_known_machine = static_cast<MachineId>(msg.receiver.last_known_machine ^ 1);
    Result<Message> next = Message::Deserialize(msg.Serialize());
    benchmark::DoNotOptimize(next);
  }
  state.counters["allocs_per_hop"] =
      benchmark::Counter(static_cast<double>(PayloadCounters::allocations),
                         benchmark::Counter::kAvgIterations);
  state.counters["copied_bytes_per_hop"] =
      benchmark::Counter(static_cast<double>(PayloadCounters::copied_bytes),
                         benchmark::Counter::kAvgIterations);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_MessageForwardHopReserialize)->Arg(16)->Arg(256)->Arg(4096);

void BM_LocalMessageDelivery(benchmark::State& state) {
  RegisterOnce();
  Cluster cluster(ClusterConfig{.machines = 1});
  auto addr = cluster.kernel(0).SpawnProcess("micro_idle");
  cluster.RunUntilIdle();
  for (auto _ : state) {
    cluster.kernel(0).SendFromKernel(*addr, kNote, {1, 2, 3});
    cluster.RunUntilIdle();
  }
}
BENCHMARK(BM_LocalMessageDelivery);

void BM_RemoteMessageDelivery(benchmark::State& state) {
  RegisterOnce();
  Cluster cluster(ClusterConfig{.machines = 2});
  auto addr = cluster.kernel(1).SpawnProcess("micro_idle");
  cluster.RunUntilIdle();
  for (auto _ : state) {
    cluster.kernel(0).SendFromKernel(*addr, kNote, {1, 2, 3});
    cluster.RunUntilIdle();
  }
}
BENCHMARK(BM_RemoteMessageDelivery);

void BM_ForwardedMessageDelivery(benchmark::State& state) {
  RegisterOnce();
  ClusterConfig config;
  config.machines = 3;
  config.kernel.link_update_enabled = false;  // keep the forward on every send
  Cluster cluster(config);
  auto addr = cluster.kernel(0).SpawnProcess("micro_idle");
  cluster.RunUntilIdle();
  (void)cluster.kernel(0).StartMigration(addr->pid, 1, cluster.kernel(0).kernel_address());
  cluster.RunUntilIdle();
  for (auto _ : state) {
    cluster.kernel(2).SendFromKernel(ProcessAddress{0, addr->pid}, kNote, {1});
    cluster.RunUntilIdle();
  }
}
BENCHMARK(BM_ForwardedMessageDelivery);

void BM_MigrationEndToEnd(benchmark::State& state) {
  RegisterOnce();
  const auto image_bytes = static_cast<std::uint32_t>(state.range(0));
  Cluster cluster(ClusterConfig{.machines = 2});
  auto addr = cluster.kernel(0).SpawnProcess("micro_idle", image_bytes / 2, image_bytes / 4,
                                             image_bytes / 4);
  cluster.RunUntilIdle();
  MachineId from = 0;
  for (auto _ : state) {
    (void)cluster.kernel(from).StartMigration(addr->pid, static_cast<MachineId>(1 - from),
                                              cluster.kernel(from).kernel_address());
    cluster.RunUntilIdle();
    from = static_cast<MachineId>(1 - from);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * image_bytes);
}
BENCHMARK(BM_MigrationEndToEnd)->Arg(4 * 1024)->Arg(64 * 1024)->Arg(1024 * 1024);

void BM_ResidentStateSerialize(benchmark::State& state) {
  ProcessRecord record;
  record.pid = ProcessId{0, 1};
  record.memory = MemoryImage::Create("p", 4096, 4096, 1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(record.SerializeResidentState());
  }
}
BENCHMARK(BM_ResidentStateSerialize);

void BM_LinkTableUpdateAddresses(benchmark::State& state) {
  LinkTable table;
  const ProcessId target{0, 7};
  for (int i = 0; i < state.range(0); ++i) {
    Link link;
    link.address = i % 4 == 0 ? ProcessAddress{0, target}
                              : ProcessAddress{1, {1, static_cast<std::uint32_t>(i)}};
    table.Insert(link);
  }
  MachineId flip = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.UpdateAddresses(target, flip));
    flip = static_cast<MachineId>(flip == 2 ? 3 : 2);
  }
}
BENCHMARK(BM_LinkTableUpdateAddresses)->Arg(8)->Arg(64)->Arg(512);

void BM_SimulatedSecondOfRpc(benchmark::State& state) {
  RegisterOnce();
  for (auto _ : state) {
    Cluster cluster(ClusterConfig{.machines = 2});
    auto server = cluster.kernel(1).SpawnProcess("rpc_server");
    auto client = cluster.kernel(0).SpawnProcess("rpc_client");
    RpcClientConfig rpc;
    rpc.count = 300;
    rpc.period_us = 3000;  // ~1 virtual second of traffic
    (void)cluster.kernel(0).FindProcess(client->pid)->memory.WriteData(0, rpc.Encode());
    cluster.RunUntilIdle();
    Link to_server;
    to_server.address = *server;
    cluster.kernel(0).SendFromKernel(*client, kAttachTarget, {}, {to_server});
    cluster.RunUntilIdle();
  }
}
BENCHMARK(BM_SimulatedSecondOfRpc)->Unit(benchmark::kMillisecond);

// Guard for the EventQueue dispatch path: Step() must run each callback in
// the slot it was built in -- never copy it, never move it -- and the radix
// heap must file slot indices rather than callbacks.  The probe's copy and
// move constructors bump counters that are reported per event; the CI gate
// asserts 0 copies and 0 moves per dispatched event.
std::uint64_t g_probe_copies = 0;
std::uint64_t g_probe_moves = 0;

struct CallbackCopyProbe {
  CallbackCopyProbe() = default;
  CallbackCopyProbe(const CallbackCopyProbe&) { ++g_probe_copies; }
  CallbackCopyProbe& operator=(const CallbackCopyProbe&) {
    ++g_probe_copies;
    return *this;
  }
  CallbackCopyProbe(CallbackCopyProbe&&) noexcept { ++g_probe_moves; }
  CallbackCopyProbe& operator=(CallbackCopyProbe&&) noexcept {
    ++g_probe_moves;
    return *this;
  }
};

void BM_EventQueueStep(benchmark::State& state) {
  constexpr std::size_t kBatch = 1024;
  // Shuffled schedule times, so the radix heap splits do real work.
  std::vector<SimTime> times(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    times[i] = static_cast<SimTime>(i);
  }
  Rng rng(7);
  for (std::size_t i = kBatch - 1; i > 0; --i) {
    std::swap(times[i], times[rng.Below(i + 1)]);
  }
  std::uint64_t dispatch_copies = 0;
  std::uint64_t dispatch_moves = 0;
  std::uint64_t sink = 0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    state.PauseTiming();
    EventQueue queue;
    CallbackCopyProbe probe;
    for (const SimTime t : times) {
      queue.At(t, [probe, &sink] { ++sink; });
    }
    // Copies and moves made while scheduling (lambda capture, lambda ->
    // Callback, into the slot) are expected; only the dispatch loop counts.
    const std::uint64_t copies_before = g_probe_copies;
    const std::uint64_t moves_before = g_probe_moves;
    state.ResumeTiming();
    while (queue.Step()) {
    }
    state.PauseTiming();
    dispatch_copies += g_probe_copies - copies_before;
    dispatch_moves += g_probe_moves - moves_before;
    events += kBatch;
    state.ResumeTiming();
  }
  benchmark::DoNotOptimize(sink);
  state.counters["callback_copies_per_event"] = benchmark::Counter(
      static_cast<double>(dispatch_copies) / static_cast<double>(events));
  state.counters["callback_moves_per_event"] = benchmark::Counter(
      static_cast<double>(dispatch_moves) / static_cast<double>(events));
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventQueueStep);

}  // namespace
}  // namespace demos

// BENCHMARK_MAIN() expanded so --metrics-out can be peeled off before
// google-benchmark sees (and rejects) it.  The micro benches have no parallel
// runtime, so the export is the legacy-only fold: kernel StatSlab
// counters are per-Cluster and already torn down here, but the process-wide
// payload pipeline counters survive and are the number these benches
// actually stress.
int main(int argc, char** argv) {
  std::string metrics_path;
  std::vector<char*> passthrough;
  passthrough.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_path = arg.substr(14);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&filtered_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!metrics_path.empty()) {
    demos::MetricsTimeSeries series;
    series.final_snapshot = demos::BuildSnapshot(nullptr);
    if (!demos::WriteMetricsJsonFile(series, metrics_path)) {
      std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
      return 1;
    }
    std::printf("metrics: %s\n", metrics_path.c_str());
  }
  return 0;
}
