// E8 -- Load balancing via migration (Sec. 1 motivation, Sec. 3.1 policy).
//
// Paper: "If it is possible to assess the system load dynamically and to
// redistribute processes during their lifetimes, a system has the opportunity
// to achieve better overall throughput, in spite of the communication and
// computation involved in moving a process."
//
// Part A: K CPU-bound jobs start skewed onto one of M machines; makespan under
// static placement vs the threshold balancer.  Part B: a chatty RPC client
// placed away from its server, under the communication-affinity policy.

#include "bench/bench_util.h"
#include "src/kernel/context_impl.h"

namespace demos {
namespace {

SimTime RunCpuScenario(const std::string& policy, int machines, int jobs,
                       std::uint64_t work_us) {
  Cluster cluster(ClusterConfig{.machines = machines});
  BootOptions options;
  options.policy = policy;
  options.policy_interval_us = 50'000;
  options.load_report_interval_us = 25'000;
  options.start_file_system = false;
  SystemLayout layout = BootSystem(cluster, options);

  // All jobs begin on machine 0 (the "disturbed mix" of Sec. 1), created via
  // the PM so the balancer may move them.
  std::vector<ProcessId> workers;
  auto sink = cluster.kernel(0).SpawnProcess("sink");
  cluster.RunFor(1000);
  for (int i = 0; i < jobs; ++i) {
    ByteWriter w;
    w.U64(static_cast<std::uint64_t>(i));
    w.Str("cpu_bound");
    w.U16(0);
    w.U32(2048);
    w.U32(1024);
    w.U32(512);
    Link reply;
    reply.address = *sink;
    reply.flags = kLinkReply;
    cluster.kernel(0).SendFromKernel(layout.process_manager, kPmCreate, w.Take(), {reply});
  }
  // Collect created pids.
  for (int guard = 0; guard < 200 && static_cast<int>(workers.size()) < jobs; ++guard) {
    cluster.RunFor(2'000);
    workers.clear();
    for (MachineId m = 0; m < static_cast<MachineId>(machines); ++m) {
      for (const auto& [pid, entry] : cluster.kernel(m).process_table().entries()) {
        if (!entry.IsForwarding() && entry.process->memory.ProgramName() == "cpu_bound") {
          workers.push_back(pid);
        }
      }
    }
  }

  // Configure and kick each worker.
  const SimTime start = cluster.queue().Now();
  for (const ProcessId& pid : workers) {
    CpuBoundConfig config;
    config.quantum_us = 2000;
    config.period_us = 2100;
    config.total_us = work_us;
    ProcessRecord* record = cluster.FindProcessAnywhere(pid);
    (void)record->memory.WriteData(0, config.Encode());
    KernelContext ctx(&cluster.kernel(cluster.HostOf(pid)), record);
    ctx.SetTimer(1, 0x71CC);  // CpuBoundProgram's tick cookie
  }

  // Run until every worker reports done.
  for (int guard = 0; guard < 20'000; ++guard) {
    bool all_done = true;
    for (const ProcessId& pid : workers) {
      ProcessRecord* record = cluster.FindProcessAnywhere(pid);
      if (record == nullptr) {
        continue;
      }
      ByteReader r(record->memory.ReadData(40, 8));
      all_done = all_done && r.U64() == 1;
    }
    if (all_done) {
      break;
    }
    cluster.RunFor(10'000);
  }
  return cluster.queue().Now() - start;
}

struct AffinityResult {
  double mean_latency_us = 0;
  MachineId final_home = kNoMachine;
};

AffinityResult RunAffinityScenario(const std::string& policy) {
  Cluster cluster(ClusterConfig{.machines = 3});
  BootOptions options;
  options.policy = policy;
  options.policy_interval_us = 50'000;
  options.load_report_interval_us = 25'000;
  options.start_file_system = false;
  SystemLayout layout = BootSystem(cluster, options);
  (void)layout;

  auto server = cluster.kernel(2).SpawnProcess("rpc_server");
  auto sink = cluster.kernel(0).SpawnProcess("sink");
  cluster.RunFor(1000);
  // Client created via PM on machine 0 so it is in the PM inventory.
  ByteWriter w;
  w.U64(1);
  w.Str("rpc_client");
  w.U16(0);
  w.U32(2048);
  w.U32(1024);
  w.U32(512);
  Link reply;
  reply.address = *sink;
  reply.flags = kLinkReply;
  cluster.kernel(0).SendFromKernel(layout.process_manager, kPmCreate, w.Take(), {reply});
  cluster.RunFor(20'000);

  ProcessId client_pid;
  for (const auto& [pid, entry] : cluster.kernel(0).process_table().entries()) {
    if (!entry.IsForwarding() && entry.process->memory.ProgramName() == "rpc_client") {
      client_pid = pid;
    }
  }
  RpcClientConfig rpc;
  rpc.count = 400;
  rpc.period_us = 1500;
  rpc.payload_bytes = 128;
  ProcessRecord* record = cluster.FindProcessAnywhere(client_pid);
  (void)record->memory.WriteData(0, rpc.Encode());
  Link to_server;
  to_server.address = *server;
  cluster.kernel(0).SendFromKernel(ProcessAddress{0, client_pid}, kAttachTarget, {},
                                   {to_server});

  for (int guard = 0; guard < 2000; ++guard) {
    ProcessRecord* rec = cluster.FindProcessAnywhere(client_pid);
    auto* program = dynamic_cast<RpcClientProgram*>(rec->program.get());
    if (program != nullptr && program->samples().size() >= rpc.count) {
      break;
    }
    cluster.RunFor(5'000);
  }

  AffinityResult out;
  ProcessRecord* rec = cluster.FindProcessAnywhere(client_pid);
  auto* program = dynamic_cast<RpcClientProgram*>(rec->program.get());
  double total = 0;
  for (const RpcSample& sample : program->samples()) {
    total += static_cast<double>(sample.latency_us);
  }
  out.mean_latency_us = program->samples().empty()
                            ? 0.0
                            : total / static_cast<double>(program->samples().size());
  out.final_home = cluster.HostOf(client_pid);
  return out;
}

void Run() {
  bench::RegisterEverything();
  bench::Title("E8a", "CPU load balancing: makespan of skewed job mix");
  bench::PaperClaim("dynamic redistribution improves throughput despite migration cost");

  bench::Table cpu({"machines", "jobs", "static us", "threshold us", "speedup"});
  for (auto [machines, jobs] : {std::pair{2, 4}, std::pair{3, 6}, std::pair{4, 8}}) {
    const SimTime fixed = RunCpuScenario("null", machines, jobs, 300'000);
    const SimTime balanced = RunCpuScenario("threshold", machines, jobs, 300'000);
    cpu.Row({bench::Num(machines), bench::Num(jobs),
             bench::Num(static_cast<std::int64_t>(fixed)),
             bench::Num(static_cast<std::int64_t>(balanced)),
             bench::Num(static_cast<double>(fixed) / static_cast<double>(balanced), 2)});
  }
  cpu.Print();

  bench::Title("E8b", "communication affinity: chatty client moved next to its server");
  bench::PaperClaim("moving a process closer to its favourite resource cuts traffic cost");
  bench::Table affinity({"policy", "mean rpc us", "client ends on"});
  for (const char* policy : {"null", "affinity"}) {
    AffinityResult r = RunAffinityScenario(policy);
    affinity.Row({policy, bench::Num(r.mean_latency_us, 1),
                  r.final_home == kNoMachine
                      ? "?"
                      : std::string("m").append(std::to_string(r.final_home))});
  }
  affinity.Print();
  bench::Note("the affinity policy relocates the client to the server's machine (m2),");
  bench::Note("after which RPCs avoid the wire entirely.");
}

}  // namespace
}  // namespace demos

int main() {
  demos::Run();
  return 0;
}
