// chaos_fuzz: seed-driven chaos fuzzer for the DEMOS/MP cluster.
//
// Each 64-bit seed deterministically derives a scenario (topology, network
// pathology, workload mix, migration/crash schedule), runs it to quiescence
// under the cluster invariant checker, and reports every violated invariant.
//
//   chaos_fuzz --seeds=200             sweep seeds 1..200
//   chaos_fuzz --seeds=200 --start=1000  sweep 1000..1199
//   chaos_fuzz --seed=42               replay one scenario, verbose
//   chaos_fuzz --seed=42 --minimize    greedily shrink the failing scenario
//   chaos_fuzz --seed=42 --trace-out=t.json   write the trimmed Chrome trace
//   chaos_fuzz --artifacts-dir=out     failing seeds + traces for CI upload
//   chaos_fuzz --disable=crashes,drop  mask feature axes (replay aid)
//   chaos_fuzz --seeds=50 --permadeath permanent machine-death scenarios
//                                      (migration watchdogs armed, I8 audit)
//   chaos_fuzz --seeds=50 --churn      migration storms + kill/restart
//                                      cycles (forwarding GC, chain collapse,
//                                      gossip under churn); composes with
//                                      --permadeath
//   chaos_fuzz --seeds=50 --engine=parallel  run scenarios on the parallel
//                                      engine (one thread per kernel, under
//                                      conservative virtual-time sync)
//
// Exit status: 0 if every seed passed, 1 otherwise.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/check/chaos.h"
#include "src/obs/trace_export.h"

namespace {

struct Options {
  bool have_seed = false;
  std::uint64_t seed = 0;
  std::uint64_t seeds = 0;  // sweep count (0 = single seed mode)
  std::uint64_t start = 1;
  bool minimize = false;
  bool verbose = false;
  bool permadeath = false;
  bool churn = false;
  demos::ChaosEngineKind engine = demos::ChaosEngineKind::kSequential;
  std::string trace_out;
  std::string artifacts_dir;
  std::vector<demos::ChaosFeature> disabled;
};

bool ParseU64(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') {
    return false;
  }
  *out = value;
  return true;
}

bool ParseArgs(int argc, char** argv, Options* opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&arg](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value_of("--seed=")) {
      if (!ParseU64(v, &opts->seed)) {
        return false;
      }
      opts->have_seed = true;
    } else if (const char* v = value_of("--seeds=")) {
      if (!ParseU64(v, &opts->seeds)) {
        return false;
      }
    } else if (const char* v = value_of("--start=")) {
      if (!ParseU64(v, &opts->start)) {
        return false;
      }
    } else if (const char* v = value_of("--trace-out=")) {
      opts->trace_out = v;
    } else if (const char* v = value_of("--artifacts-dir=")) {
      opts->artifacts_dir = v;
    } else if (const char* v = value_of("--disable=")) {
      std::string list = v;
      std::size_t pos = 0;
      while (pos <= list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::string name =
            list.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
        if (!name.empty()) {
          const demos::ChaosFeature f = demos::ChaosFeatureFromName(name);
          if (f == demos::ChaosFeature::kNone) {
            std::fprintf(stderr, "unknown feature '%s'\n", name.c_str());
            return false;
          }
          opts->disabled.push_back(f);
        }
        if (comma == std::string::npos) {
          break;
        }
        pos = comma + 1;
      }
    } else if (const char* v = value_of("--engine=")) {
      const std::string name = v;
      if (name == "sequential") {
        opts->engine = demos::ChaosEngineKind::kSequential;
      } else if (name == "parallel") {
        opts->engine = demos::ChaosEngineKind::kParallel;
      } else {
        std::fprintf(stderr, "unknown engine '%s' (sequential|parallel)\n", name.c_str());
        return false;
      }
    } else if (arg == "--permadeath") {
      opts->permadeath = true;
    } else if (arg == "--churn") {
      opts->churn = true;
    } else if (arg == "--minimize") {
      opts->minimize = true;
    } else if (arg == "--verbose" || arg == "-v") {
      opts->verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      return false;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return false;
    }
  }
  return opts->have_seed || opts->seeds > 0;
}

void PrintUsage() {
  std::fprintf(stderr,
               "usage: chaos_fuzz (--seed=N | --seeds=K [--start=S])\n"
               "                  [--engine=sequential|parallel]\n"
               "                  [--permadeath] [--churn] [--minimize] [--verbose]\n"
               "                  [--trace-out=PATH] [--artifacts-dir=DIR]\n"
               "                  [--disable=f1,f2,...]\n"
               "features: crashes drop dup jitter notes cpu rpc halve-migrations\n"
               "          halve-crashes\n");
}

void PrintFailure(const Options& opts, const demos::ChaosScenario& scenario,
                  const demos::ChaosResult& result) {
  std::printf("FAIL seed=%llu (%zu violation%s)\n",
              static_cast<unsigned long long>(scenario.seed), result.violations.size(),
              result.violations.size() == 1 ? "" : "s");
  std::printf("%s\n", scenario.Describe().c_str());
  constexpr std::size_t kMaxPrinted = 10;
  for (std::size_t i = 0; i < result.violations.size() && i < kMaxPrinted; ++i) {
    std::printf("  %s\n", result.violations[i].ToString().c_str());
  }
  if (result.violations.size() > kMaxPrinted) {
    std::printf("  ... and %zu more\n", result.violations.size() - kMaxPrinted);
  }
  std::printf("repro: chaos_fuzz --seed=%llu%s%s%s\n",
              static_cast<unsigned long long>(scenario.seed),
              opts.churn ? " --churn" : "",
              opts.permadeath ? " --permadeath" : "",
              opts.engine == demos::ChaosEngineKind::kParallel ? " --engine=parallel" : "");
}

// Trim the cluster timeline to the violation's cast of characters and write a
// Chrome trace (chrome://tracing, perfetto.dev).
void WriteTrimmedTrace(const demos::ChaosResult& result, const std::string& path) {
  const std::vector<demos::EventRecord> trimmed =
      demos::FilterTrace(result.trace, result.suspect_trace_ids, result.suspect_pids);
  const std::vector<demos::EventRecord>& events = trimmed.empty() ? result.trace : trimmed;
  if (demos::WriteChromeTraceFile(events, path)) {
    std::printf("trace: %s (%zu events)\n", path.c_str(), events.size());
  } else {
    std::fprintf(stderr, "failed to write trace to %s\n", path.c_str());
  }
}

// Flight-recorder post-mortem: the merged last-N-events window every kernel
// kept while the scenario ran, as text and as a Chrome trace.
void WriteFlightDumps(const demos::ChaosResult& result, const std::string& stem) {
  if (result.flight.empty()) {
    return;
  }
  const char* reason = result.flight_trigger != nullptr ? result.flight_trigger : "failure";
  if (demos::WriteFlightTextFile(result.flight, reason, stem + ".flightrec.txt")) {
    std::printf("flight recorder: %s.flightrec.txt (%zu records, trigger: %s)\n", stem.c_str(),
                result.flight.size(), reason);
  } else {
    std::fprintf(stderr, "failed to write flight dump to %s.flightrec.txt\n", stem.c_str());
  }
  if (!demos::WriteChromeTraceFile(demos::FlightRecordsInMicros(result.flight),
                                   stem + ".flightrec.trace.json")) {
    std::fprintf(stderr, "failed to write flight trace to %s.flightrec.trace.json\n", stem.c_str());
  }
}

void RecordArtifacts(const Options& opts, const demos::ChaosScenario& scenario,
                     const demos::ChaosResult& result) {
  if (opts.artifacts_dir.empty()) {
    return;
  }
  std::error_code ec;
  std::filesystem::create_directories(opts.artifacts_dir, ec);
  const std::string dir = opts.artifacts_dir + "/";
  std::ofstream seeds(dir + "failing_seeds.txt", std::ios::app);
  seeds << scenario.seed << "\n";
  const std::string stem = dir + "seed_" + std::to_string(scenario.seed);
  WriteTrimmedTrace(result, stem + ".trace.json");
  WriteFlightDumps(result, stem);
}

// Runs one seed; returns true iff it passed.
bool RunSeed(const Options& opts, std::uint64_t seed) {
  demos::ChaosScenario scenario =
      opts.churn        ? demos::ChurnScenarioFromSeed(seed, opts.permadeath)
      : opts.permadeath ? demos::PermanentDeathScenarioFromSeed(seed)
                        : demos::ScenarioFromSeed(seed);
  for (const demos::ChaosFeature f : opts.disabled) {
    (void)demos::DisableFeature(&scenario, f);
  }
  demos::ChaosOptions run_opts;
  run_opts.engine = opts.engine;
  run_opts.collect_trace = !opts.trace_out.empty() || !opts.artifacts_dir.empty();
  const demos::ChaosResult result = demos::RunScenario(scenario, run_opts);
  if (result.ok()) {
    if (opts.verbose) {
      std::printf("PASS seed=%llu events=%zu tracked=%llu probe_rounds=%d\n",
                  static_cast<unsigned long long>(seed), result.events_executed,
                  static_cast<unsigned long long>(result.messages_tracked), result.probe_rounds);
    }
    return true;
  }

  PrintFailure(opts, scenario, result);
  if (!opts.trace_out.empty()) {
    WriteTrimmedTrace(result, opts.trace_out);
  }
  RecordArtifacts(opts, scenario, result);

  if (opts.minimize) {
    const demos::MinimizeResult min = demos::MinimizeScenario(scenario, run_opts);
    std::printf("minimized after %d run%s:", min.runs, min.runs == 1 ? "" : "s");
    if (min.disabled.empty() && min.halvings == 0 && min.crash_halvings == 0) {
      std::printf(" (irreducible)");
    }
    for (const demos::ChaosFeature f : min.disabled) {
      std::printf(" -%s", demos::ChaosFeatureName(f));
    }
    if (min.halvings > 0) {
      std::printf(" migrations/%d", 1 << min.halvings);
    }
    if (min.crash_halvings > 0) {
      std::printf(" crashes/%d", 1 << min.crash_halvings);
    }
    std::printf("\n%s\n", min.scenario.Describe().c_str());
    std::string disable_list;
    for (const demos::ChaosFeature f : min.disabled) {
      disable_list += (disable_list.empty() ? "" : ",");
      disable_list += demos::ChaosFeatureName(f);
    }
    if (!disable_list.empty()) {
      std::printf("repro (minimized): chaos_fuzz --seed=%llu --disable=%s\n",
                  static_cast<unsigned long long>(seed), disable_list.c_str());
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, &opts)) {
    PrintUsage();
    return 2;
  }

  if (opts.have_seed && opts.seeds == 0) {
    return RunSeed(opts, opts.seed) ? 0 : 1;
  }

  std::uint64_t failures = 0;
  const std::uint64_t begin = opts.have_seed ? opts.seed : opts.start;
  for (std::uint64_t seed = begin; seed < begin + opts.seeds; ++seed) {
    if (!RunSeed(opts, seed)) {
      ++failures;
    }
  }
  std::printf("%llu/%llu seeds passed (seeds %llu..%llu)\n",
              static_cast<unsigned long long>(opts.seeds - failures),
              static_cast<unsigned long long>(opts.seeds),
              static_cast<unsigned long long>(begin),
              static_cast<unsigned long long>(begin + opts.seeds - 1));
  return failures == 0 ? 0 : 1;
}
