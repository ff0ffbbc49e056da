// Fault tolerance (Sec. 1): "working processes may be migrated from a dying
// processor (like rats leaving a sinking ship) before it completely fails."
//
// Machine 2 starts to fail; the process manager evacuates it before the hard
// crash.  One unlucky process that did NOT make it off in time is then
// recovered from a stable-storage checkpoint instead -- the paper's crashed-
// processor "migration".
//
//   ./build/examples/sinking_ship

#include <cstdio>

#include "src/fault/crash.h"
#include "src/fault/recovery.h"
#include "src/kernel/cluster.h"
#include "src/sys/bootstrap.h"
#include "src/sys/process_manager.h"
#include "src/workload/programs.h"

namespace demos {
namespace {

constexpr MsgType kIncrement = static_cast<MsgType>(1003);

// Same behaviour as the test-suite counter: count at data[0..8).
class DeckhandProgram final : public Program {
 public:
  void OnMessage(Context& ctx, const Message& msg) override {
    if (msg.type != kIncrement) {
      return;
    }
    ByteReader r(ctx.ReadData(0, 8));
    ByteWriter w;
    w.U64(r.U64() + 1);
    (void)ctx.WriteData(0, w.bytes());
  }
};

int Main() {
  RegisterWorkloadPrograms();  // provides the "sink" reply absorber
  ProgramRegistry::Instance().Register("deckhand",
                                       [] { return std::make_unique<DeckhandProgram>(); });
  Cluster cluster(ClusterConfig{.machines = 3});
  BootOptions options;
  options.start_file_system = false;
  SystemLayout layout = BootSystem(cluster, options);
  CrashController crash(&cluster);
  StableStore stable_store;

  // Four deckhands working aboard machine 2, created through the process
  // manager so it can evacuate them.
  auto sink = cluster.kernel(0).SpawnProcess("sink");
  cluster.RunFor(1000);
  for (int i = 0; i < 4; ++i) {
    ByteWriter w;
    w.U64(static_cast<std::uint64_t>(i));
    w.Str("deckhand");
    w.U16(2);
    w.U32(4096);
    w.U32(1024);
    w.U32(512);
    Link reply;
    reply.address = *sink;
    reply.flags = kLinkReply;
    cluster.kernel(0).SendFromKernel(layout.process_manager, kPmCreate, w.Take(), {reply});
  }
  cluster.RunFor(30'000);
  std::vector<ProcessId> crew;
  for (const auto& [pid, entry] : cluster.kernel(2).process_table().entries()) {
    if (!entry.IsForwarding() && entry.process->memory.ProgramName() == "deckhand") {
      crew.push_back(pid);
    }
  }
  std::printf("%zu deckhands working on machine 2\n", crew.size());
  for (const ProcessId& pid : crew) {
    for (int i = 0; i < 3; ++i) {
      cluster.kernel(0).SendFromKernel(ProcessAddress{2, pid}, kIncrement, {});
    }
  }
  cluster.RunFor(20'000);

  // One crew member is checkpointed to stable storage as a belt-and-braces
  // measure (it will be the one left behind).
  const ProcessId unlucky = crew.back();
  (void)stable_store.Checkpoint(cluster, unlucky);
  std::printf("checkpointed %s to stable storage\n", unlucky.ToString().c_str());

  std::printf("\n[t=%llu us] machine 2 is degrading; hard crash in 120 ms\n",
              static_cast<unsigned long long>(cluster.queue().Now()));
  crash.DegradeThenCrash(2, 120'000);

  // Evacuate all but the unlucky one (pin it so the PM leaves it behind --
  // simulating a process the evacuation could not reach in time).
  {
    ByteWriter w;
    w.Pid(unlucky);
    cluster.kernel(0).SendFromKernel(layout.process_manager, kPmPin, w.Take());
  }
  {
    ByteWriter w;
    w.U16(2);
    cluster.kernel(0).SendFromKernel(layout.process_manager, kPmEvacuate, w.Take());
  }
  cluster.RunFor(200'000);  // past the crash

  std::printf("\nafter the crash:\n");
  int escaped = 0;
  for (const ProcessId& pid : crew) {
    const MachineId at = cluster.HostOf(pid);
    const bool safe = at != kNoMachine && at != 2;
    escaped += safe ? 1 : 0;
    std::printf("  %s -> %s\n", pid.ToString().c_str(),
                safe ? std::string("m").append(std::to_string(at)).c_str()
                     : "lost with the ship");
  }
  std::printf("%d of %zu escaped by migration\n", escaped, crew.size());

  std::printf("\nrecovering %s from its stable-storage checkpoint onto m1...\n",
              unlucky.ToString().c_str());
  Status recovered = stable_store.RecoverProcess(cluster, unlucky, 1);
  std::printf("  %s\n", recovered.ToString().c_str());
  cluster.RunFor(20'000);

  // Everyone answers a roll call.
  for (const ProcessId& pid : crew) {
    const MachineId at = cluster.HostOf(pid);
    cluster.kernel(0).SendFromKernel(ProcessAddress{at, pid}, kIncrement, {});
  }
  cluster.RunFor(20'000);
  std::printf("\nroll call (each should report 4: 3 before the disaster + 1 now):\n");
  for (const ProcessId& pid : crew) {
    ProcessRecord* record = cluster.FindProcessAnywhere(pid);
    ByteReader r(record->memory.ReadData(0, 8));
    std::printf("  %s on m%u: count %llu\n", pid.ToString().c_str(), cluster.HostOf(pid),
                static_cast<unsigned long long>(r.U64()));
  }
  return 0;
}

}  // namespace
}  // namespace demos

int main() { return demos::Main(); }
