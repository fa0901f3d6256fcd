// fleet_runner: the deployment story as a tested artifact. One invocation launches a whole
// localhost fleet — N agent processes probing disjoint slices of the pinglist space and M
// partitioned collector processes folding their authenticated UDP reports — pushes every
// agent's frames through a configurable ImpairmentTransport profile (burst loss, delay,
// jitter, duplication, corruption — the hostile-network schedule from src/net/impairment),
// waits for clean shutdown, and verifies the fleet still localized the injected failure.
// ctest and CI run it as a smoke gate, so "works deployed" is checked, not demoed.
//
//   ./fleet_runner --agents=2 --collectors=2 --k=4 --windows=2
//                  --impair=burst=0.1:4,dup=0.05,delay=2,jitter=3
//
// --impair=gray flips the run into the anomaly plane's deployment check (PR 10): the probed
// network suffers a pure-latency gray failure instead of the blackhole, agents ship RTT
// sketches in their frames, collectors run the EWMA anomaly plane per window, and the parent
// asserts the gray link is flagged by the anomaly plane while the loss suspect set stays
// silent on it.
//
// Every process derives the same system deterministically from --k (PR 5's no-config-exchange
// property), so the only coordination is the port plan: collector i binds --port + i.
//
// The runner re-execs its own binary for each fleet member (--role=agent|collector --index=i)
// with stdout redirected to a per-member log under --out-dir (default out/fleet), so member
// output is attributable and the parent can assert on it. In sandboxes without UDP sockets the
// parent probes one Bind up front and exits 0 with a NOTICE, mirroring the UDP tests' skip
// path. The roles also run by hand — the two-process shape, in two terminals:
//
//   ./fleet_runner --role=collector --index=0 --collectors=1 --port=9477
//   ./fleet_runner --role=agent --index=0 --agents=1 --collectors=1 --port=9477 --windows=3
//
// --history-dir=DIR makes collector i seal every window it closes into an append-only
// WindowLog under DIR/collector-i, and the launcher then requires every collector to have
// sealed a window and its log to read back clean, with window indices strictly increasing
// across runs over the same DIR. Query a log at the fleet's --k (default 4):
//
//   ./monitor_daemon --mode=query --k=4 --history-dir=out/fleet_history/collector-0
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/anomaly/anomaly_engine.h"
#include "src/common/flags.h"
#include "src/common/rng.h"
#include "src/detector/analyzer.h"
#include "src/detector/system.h"
#include "src/history/window_log.h"
#include "src/net/impairment.h"
#include "src/net/udp.h"
#include "src/report/collector.h"
#include "src/report/emitter.h"
#include "src/report/partition.h"
#include "src/routing/fattree_routing.h"
#include "src/sim/anomaly_scenarios.h"
#include "src/sim/latency_model.h"

namespace {

using namespace detector;

// Both halves of the split deployment build the same system deterministically — the agent's
// slot numbering, the collector's probe matrix, and everyone's partition map agree without
// any config exchange. monitor_daemon's MatrixOptions rebuilds this shape to query the
// collectors' logs, and refuses a log whose slot count it does not reproduce.
DetectorSystemOptions FleetOptions() {
  DetectorSystemOptions options;
  options.pmc.alpha = 2;
  options.pmc.beta = 1;
  return options;
}

PartitionMap FleetPartition(const DetectorSystem& system, size_t num_partitions) {
  std::vector<NodeId> pingers;
  pingers.reserve(system.pinglists().size());
  for (const Pinglist& list : system.pinglists()) {
    pingers.push_back(list.pinger);
  }
  return PartitionMap::Build(std::move(pingers), num_partitions);
}

// The failure the fleet must localize: a 50% packet blackhole on an agg-core link.
FailureScenario FleetScenario(const FatTree& fattree) {
  FailureScenario scenario;
  LinkFailure f;
  f.link = fattree.AggCoreLink(1, 0, 1);
  f.type = FailureType::kDeterministicPartial;
  f.match_fraction = 0.5;
  f.rule_seed = 1234;
  scenario.failures.push_back(f);
  return scenario;
}

// --impair=gray: the delay-but-deliver deployment (PR 10). The probed network swaps the
// blackhole for a pure-latency gray failure on the *same* agg-core link — every probe
// delivered, every traversal ~2.5ms late — while the report wire gets a lossless delay+jitter
// profile, so the frames themselves arrive late but intact. Agents ship RTT sketches
// alongside the loss counters, collectors run the anomaly plane per window, and the parent
// asserts the inverted outcome: the anomaly plane names the gray link, the loss suspect set
// never does.
bool IsGrayImpair(const std::string& spec) { return spec == "gray"; }

ImpairmentProfile GrayWireProfile() {
  ImpairmentProfile profile;
  profile.delay_ticks = 2;
  profile.jitter_ticks = 3;
  return profile;
}

LinkId GrayLink(const FatTree& fattree) { return fattree.AggCoreLink(1, 0, 1); }
constexpr double kGrayDelayUs = 2500.0;
// Clean windows before the gray failure: one anomaly boundary per fleet window, and the
// collector's baselines warm up in 2 boundaries (see RunCollectorRole), so 2 clean windows
// let them learn "normal" before the inflation starts.
constexpr int kGrayWarmWindows = 2;

// The deployment key every fleet member derives from --key (so a fleet with a different
// --key value is a different deployment whose frames this one rejects as tampered).
ReportKey FleetKey(uint64_t key_seed) {
  const uint64_t k0 = SplitMix64(key_seed);
  return ReportKey{k0, SplitMix64(k0)};
}

// --impair=burst=0.1:4,dup=0.05,corrupt=0.01,delay=2,jitter=3,rate=8,seed=7 — omitted terms
// keep their defaults; an empty string is the unimpaired profile.
bool ParseImpairment(const std::string& spec, ImpairmentProfile& profile,
                     std::string& error) {
  std::stringstream stream(spec);
  std::string term;
  while (std::getline(stream, term, ',')) {
    if (term.empty()) {
      continue;
    }
    const size_t eq = term.find('=');
    if (eq == std::string::npos) {
      error = "bad impairment term '" + term + "' (expected name=value)";
      return false;
    }
    const std::string name = term.substr(0, eq);
    const std::string value = term.substr(eq + 1);
    try {
      if (name == "burst") {
        // rate[:length]
        const size_t colon = value.find(':');
        profile.burst_loss_rate = std::stod(value.substr(0, colon));
        if (colon != std::string::npos) {
          profile.burst_length = std::stoull(value.substr(colon + 1));
        }
      } else if (name == "dup") {
        profile.dup_rate = std::stod(value);
      } else if (name == "corrupt") {
        profile.corrupt_rate = std::stod(value);
      } else if (name == "delay") {
        profile.delay_ticks = std::stoull(value);
      } else if (name == "jitter") {
        profile.jitter_ticks = std::stoull(value);
      } else if (name == "rate") {
        profile.rate_limit_per_tick = std::stoull(value);
      } else if (name == "seed") {
        profile.seed = std::stoull(value);
      } else {
        error = "unknown impairment term '" + name + "'";
        return false;
      }
    } catch (const std::exception&) {
      error = "bad impairment value in '" + term + "'";
      return false;
    }
  }
  return true;
}

// --role=agent --index=j: probe the pinglists this agent owns (round-robin by pinglist
// index, so any --agents=N splits the same deterministic list without coordination) and ship
// authenticated frames through the impairment profile to the owning collector's port.
int RunAgentRole(const Flags& flags) {
  const int k = static_cast<int>(flags.GetInt("k", 4));
  const uint16_t port = static_cast<uint16_t>(flags.GetInt("port", 9520));
  const bool gray = IsGrayImpair(flags.GetString("impair", ""));
  int windows = std::max(1, static_cast<int>(flags.GetInt("windows", 2)));
  if (gray) {
    // Gray mode needs warmup windows plus enough failure windows to sustain the excursion
    // past the anomaly horizon; a shorter --windows would make the run vacuous.
    windows = std::max(windows, kGrayWarmWindows + 3);
  }
  const size_t batch = static_cast<size_t>(flags.GetInt("batch", 64));
  const size_t agents = std::max<size_t>(1, static_cast<size_t>(flags.GetInt("agents", 1)));
  const size_t index = static_cast<size_t>(flags.GetInt("index", 0));
  const size_t collectors =
      std::max<size_t>(1, static_cast<size_t>(flags.GetInt("collectors", 1)));
  const ReportKey key = FleetKey(static_cast<uint64_t>(flags.GetInt("key", 9477)));
  ImpairmentProfile profile;
  std::string impair_error;
  if (gray) {
    profile = GrayWireProfile();
  } else if (!ParseImpairment(flags.GetString("impair", ""), profile, impair_error)) {
    std::fprintf(stderr, "agent %zu: %s\n", index, impair_error.c_str());
    return 1;
  }
  profile.seed += index;  // each agent gets its own impairment schedule
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 9)) + index);

  // One impaired UDP pipe per collector partition — the impairment decorator composes over
  // the real socket exactly as it does over loopback in the tests.
  std::vector<std::unique_ptr<ImpairmentTransport>> transports;
  for (size_t i = 0; i < collectors; ++i) {
    std::string error;
    auto udp = UdpTransport::Connect(static_cast<uint16_t>(port + i), &error);
    if (udp == nullptr) {
      std::printf("NOTICE: UDP sockets unavailable (%s) — agent %zu skipped\n",
                  error.c_str(), index);
      return 0;
    }
    transports.push_back(
        std::make_unique<ImpairmentTransport>(std::move(udp), profile));
  }

  const FatTree fattree(k);
  const FatTreeRouting routing(fattree);
  const DetectorSystemOptions options = FleetOptions();
  DetectorSystem system(routing, options);
  const PartitionMap partition = FleetPartition(system, collectors);
  // Gray mode probes a clean network for the warmup windows, then the pure-latency failure;
  // both engines sample RTTs so the collector's baselines learn "normal" before the shift.
  ProbeEngine engine(fattree.topology(),
                     gray ? FailureScenario{} : FleetScenario(fattree), options.probe);
  ProbeEngine gray_engine(fattree.topology(),
                          GrayLatencyScenario(GrayLink(fattree), kGrayDelayUs),
                          options.probe);
  const LatencyModel latency_model(options.latency);
  if (gray) {
    engine.AttachRttObservation(&latency_model, {}, options.rtt_samples_per_path,
                                options.rtt_bins);
    gray_engine.AttachRttObservation(&latency_model, {}, options.rtt_samples_per_path,
                                     options.rtt_bins);
  }

  size_t owned = 0;
  for (size_t p = index; p < system.pinglists().size(); p += agents) {
    ++owned;
  }
  std::printf("agent %zu/%zu on Fattree(%d): %zu of %zu pinglists, %d windows -> "
              "127.0.0.1:%u..%u\n",
              index, agents, k, owned, system.pinglists().size(), windows, port,
              static_cast<unsigned>(port + collectors - 1));

  for (int w = 1; w <= windows; ++w) {
    const uint64_t window_seed = rng();
    const ProbeEngine& window_engine = (gray && w > kGrayWarmWindows) ? gray_engine : engine;
    uint64_t frames = 0;
    for (size_t p = index; p < system.pinglists().size(); p += agents) {
      const Pinglist& list = system.pinglists()[p];
      if (list.entries.empty()) {
        continue;
      }
      Transport& wire_out = *transports[static_cast<size_t>(partition.RouteOf(list.pinger))];
      ReportEmitter emitter(list.pinger, static_cast<uint64_t>(w), 0, {}, wire_out, batch,
                            key);
      Rng shard_rng = ProbeEngine::ShardRng(window_seed, static_cast<uint64_t>(list.pinger));
      const Pinger pinger(list, options.confirm_packets);
      pinger.RunWindowTo(window_engine, options.window_seconds, shard_rng, emitter);
      emitter.Flush();
      frames += emitter.stats().frames_emitted;
    }
    // Release everything the impairment schedule still holds — the window is over.
    for (auto& transport : transports) {
      transport->Flush();
    }
    std::printf("agent %zu window %d: %llu frames shipped\n", index, w,
                static_cast<unsigned long long>(frames));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  uint64_t dropped = 0;
  uint64_t corrupted = 0;
  for (const auto& transport : transports) {
    dropped += transport->impairment_stats().frames_dropped_burst;
    corrupted += transport->impairment_stats().frames_corrupted +
                 transport->impairment_stats().frames_truncated;
  }
  std::printf("agent %zu done: %llu burst-dropped, %llu corrupted in flight\n", index,
              static_cast<unsigned long long>(dropped),
              static_cast<unsigned long long>(corrupted));
  return 0;
}

// Where collector `index` retains its windows under --history-dir (empty when retention is off).
std::string CollectorHistoryDir(const Flags& flags, size_t index) {
  const std::string dir = flags.GetString("history-dir", "");
  return dir.empty() ? dir : dir + "/collector-" + std::to_string(index);
}

// --role=collector --index=i: bind port+i, own partition i of the fleet's pinger space, fold
// authenticated frames, track agent liveness, diagnose each window as the agents advance, and
// with --history-dir seal every closed window into its own log.
int RunCollectorRole(const Flags& flags) {
  const int k = static_cast<int>(flags.GetInt("k", 4));
  const uint16_t port = static_cast<uint16_t>(flags.GetInt("port", 9520));
  const size_t index = static_cast<size_t>(flags.GetInt("index", 0));
  const size_t collectors =
      std::max<size_t>(1, static_cast<size_t>(flags.GetInt("collectors", 1)));
  const int idle_ms = static_cast<int>(flags.GetInt("idle-ms", 1500));
  const double listen_seconds = static_cast<double>(flags.GetInt("listen-seconds", 60));
  const bool gray = IsGrayImpair(flags.GetString("impair", ""));
  const ReportKey key = FleetKey(static_cast<uint64_t>(flags.GetInt("key", 9477)));

  std::string error;
  auto transport = UdpTransport::Bind(static_cast<uint16_t>(port + index), &error);
  if (transport == nullptr) {
    std::printf("NOTICE: UDP sockets unavailable (%s) — collector %zu skipped\n",
                error.c_str(), index);
    return 0;
  }
  const FatTree fattree(k);
  const FatTreeRouting routing(fattree);
  DetectorSystemOptions options = FleetOptions();
  const DetectorSystem system(routing, options);
  const PartitionMap partition = FleetPartition(system, collectors);
  const Topology& topo = fattree.topology();
  const Watchdog watchdog(topo);
  // Gray mode: each collector runs the anomaly plane over its partition's folded RTT
  // sketches, one boundary per window. One boundary per window means the default 3-boundary
  // warmup would eat most of a short fleet run, so warm up in 2.
  options.anomaly = gray;
  options.anomaly_options.warmup_boundaries = 2;
  // The log authenticates under the default key — the one monitor_daemon --mode=query reads.
  options.history_dir = CollectorHistoryDir(flags, index);
  Analyzer analyzer(options, system.probe_matrix(), watchdog);
  const WindowLogWriter* log = analyzer.history_log();
  if (log != nullptr && !log->ok()) {
    std::fprintf(stderr, "collector %zu: %s\n", index, log->error().c_str());
    return 1;
  }
  CollectorOptions collector_options;
  collector_options.key = key;
  collector_options.rtt_bins = options.rtt_bins;
  collector_options.liveness_horizon =
      static_cast<uint64_t>(flags.GetInt("horizon", 2));  // windows of silence = stale
  Collector collector(analyzer.diagnoser().store(), collector_options);
  collector.SetPartition(&partition, static_cast<int>(index));
  std::printf("collector %zu/%zu on Fattree(%d): 127.0.0.1:%u, horizon=%llu windows\n",
              index, collectors, k, transport->port(),
              static_cast<unsigned long long>(collector_options.liveness_horizon));

  analyzer.Serve(
      collector, ReceiveUntilIdle(*transport, idle_ms, listen_seconds),
      [&](uint64_t window, const WindowDiagnosis& diagnosis) {
        std::printf("collector %zu window %llu: alarms=%zu", index,
                    static_cast<unsigned long long>(window), diagnosis.localization.links.size());
        for (const auto& s : diagnosis.localization.links) {
          std::printf("  %s(est=%.3f)", topo.LinkName(s.link).c_str(), s.estimated_loss_rate);
        }
        for (const LinkAnomaly& a : diagnosis.anomalies) {
          std::printf("  anomaly[%s %s run=%d score=%.2f]", topo.LinkName(a.link).c_str(),
                      AnomalySignalName(a.signal), a.sustained, a.score);
        }
        std::printf("\n");
      });
  const CollectorStats stats = collector.stats();
  std::printf("collector %zu done: %llu folded, %llu duplicates, %llu decode errors, "
              "%llu tampered, %llu stale-window, %llu misrouted, %llu pingers heard, "
              "%llu stale pingers\n",
              index, static_cast<unsigned long long>(stats.frames_folded),
              static_cast<unsigned long long>(stats.duplicates_dropped),
              static_cast<unsigned long long>(stats.decode_errors),
              static_cast<unsigned long long>(stats.tampered_dropped),
              static_cast<unsigned long long>(stats.stale_window_dropped),
              static_cast<unsigned long long>(stats.wrong_partition_dropped),
              static_cast<unsigned long long>(stats.pingers_tracked),
              static_cast<unsigned long long>(stats.stale_pingers));
  if (log != nullptr) {
    std::printf("collector %zu history: %llu windows sealed to %s\n", index,
                static_cast<unsigned long long>(log->records_appended()), log->dir().c_str());
  }
  // Frames folded but tampered frames folded == 0 is the hostile-deployment invariant; a
  // tampered fold would have corrupted the store silently pre-hardening.
  return stats.tampered_dropped > 0 && stats.frames_folded == 0 ? 1 : 0;
}

struct FleetMember {
  pid_t pid = -1;
  std::string name;
  std::string log_path;
};

// Re-exec this binary as one fleet member with stdout/stderr into a log file.
bool SpawnMember(const char* self, const std::vector<std::string>& args, FleetMember& member) {
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::fprintf(stderr, "fork: %s\n", std::strerror(errno));
    return false;
  }
  if (pid == 0) {
    FILE* log = std::fopen(member.log_path.c_str(), "w");
    if (log != nullptr) {
      ::dup2(::fileno(log), STDOUT_FILENO);
      ::dup2(::fileno(log), STDERR_FILENO);
    }
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(self));
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(self, argv.data());
    std::fprintf(stderr, "execv(%s): %s\n", self, std::strerror(errno));
    _exit(127);
  }
  member.pid = pid;
  return true;
}

// Print a member's log with an attribution prefix and return its contents.
std::string DumpLog(const FleetMember& member) {
  std::ifstream in(member.log_path);
  std::string contents;
  std::string line;
  while (std::getline(in, line)) {
    std::printf("[%s] %s\n", member.name.c_str(), line.c_str());
    contents += line;
    contents += '\n';
  }
  std::remove(member.log_path.c_str());
  return contents;
}

int RunFleet(const Flags& flags, const char* self) {
  const size_t agents = std::max<size_t>(1, static_cast<size_t>(flags.GetInt("agents", 2)));
  const size_t collectors =
      std::max<size_t>(1, static_cast<size_t>(flags.GetInt("collectors", 2)));
  const int k = static_cast<int>(flags.GetInt("k", 4));

  // Per-member logs land under --out-dir instead of littering the CWD; out/ is gitignored.
  const std::string out_dir = flags.GetString("out-dir", "out/fleet");
  std::error_code dir_error;
  std::filesystem::create_directories(out_dir, dir_error);
  if (dir_error) {
    std::fprintf(stderr, "fleet_runner: cannot create --out-dir=%s: %s\n", out_dir.c_str(),
                 dir_error.message().c_str());
    return 1;
  }

  // Validate the impairment spec up front — a typo should fail the run, not every member.
  const bool gray = IsGrayImpair(flags.GetString("impair", ""));
  ImpairmentProfile profile;
  std::string impair_error;
  if (!gray && !ParseImpairment(flags.GetString("impair", ""), profile, impair_error)) {
    std::fprintf(stderr, "fleet_runner: %s\n", impair_error.c_str());
    return 1;
  }

  // Sandbox probe: one throwaway bind decides for the whole fleet, so a socketless CI
  // sandbox gets one NOTICE instead of N+M child skips racing each other.
  {
    std::string error;
    if (UdpTransport::Bind(0, &error) == nullptr) {
      std::printf("NOTICE: UDP sockets unavailable (%s) — fleet run skipped\n",
                  error.c_str());
      return 0;
    }
  }

  // Flags every member shares; roles add their own below. The fleet shape travels so agents
  // can slice the pinglist space and route to every collector partition.
  std::vector<std::string> shared;
  for (const char* name : {"k", "port", "windows", "batch", "seed", "key", "impair",
                           "horizon", "idle-ms", "listen-seconds", "history-dir"}) {
    if (flags.Has(name)) {
      shared.push_back(std::string("--") + name + "=" + flags.GetString(name, ""));
    }
  }
  shared.push_back("--agents=" + std::to_string(agents));
  shared.push_back("--collectors=" + std::to_string(collectors));

  std::printf("fleet_runner: %zu agents + %zu collectors on Fattree(%d), impair='%s'\n",
              agents, collectors, k, flags.GetString("impair", "").c_str());

  std::vector<FleetMember> fleet;
  // Collectors first — they must be bound before the first agent frame flies.
  for (size_t i = 0; i < collectors; ++i) {
    FleetMember member;
    member.name = "collector-" + std::to_string(i);
    member.log_path = out_dir + "/fleet_collector_" + std::to_string(i) + ".log";
    std::vector<std::string> args = shared;
    args.push_back("--role=collector");
    args.push_back("--index=" + std::to_string(i));
    if (!SpawnMember(self, args, member)) {
      return 1;
    }
    fleet.push_back(member);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  for (size_t j = 0; j < agents; ++j) {
    FleetMember member;
    member.name = "agent-" + std::to_string(j);
    member.log_path = out_dir + "/fleet_agent_" + std::to_string(j) + ".log";
    std::vector<std::string> args = shared;
    args.push_back("--role=agent");
    args.push_back("--index=" + std::to_string(j));
    if (!SpawnMember(self, args, member)) {
      return 1;
    }
    fleet.push_back(member);
  }

  bool all_clean = true;
  std::vector<std::string> logs(fleet.size());
  for (size_t i = 0; i < fleet.size(); ++i) {
    int status = 0;
    if (::waitpid(fleet[i].pid, &status, 0) < 0 || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "fleet_runner: %s exited unclean (status %d)\n",
                   fleet[i].name.c_str(), status);
      all_clean = false;
    }
  }
  for (size_t i = 0; i < fleet.size(); ++i) {
    logs[i] = DumpLog(fleet[i]);
  }
  if (!all_clean) {
    return 1;
  }

  // Members that hit the sandbox skip exited 0 with a NOTICE; if anyone skipped, the run
  // proves nothing further — succeed the way the UDP tests do.
  for (const std::string& log : logs) {
    if (log.find("NOTICE: UDP sockets unavailable") != std::string::npos) {
      std::printf("fleet_runner: sandbox skip observed — fleet checks waived\n");
      return 0;
    }
  }

  const FatTree fattree(k);
  // Positive evidence required: a collector's final accounting line with a nonzero fold
  // count. (An empty or clobbered log must read as "nothing folded", not vacuously pass.)
  bool folded = false;
  for (size_t i = 0; i < collectors; ++i) {
    folded = folded || (logs[i].find(" done: ") != std::string::npos &&
                        logs[i].find(" done: 0 folded") == std::string::npos);
  }
  if (!folded) {
    std::fprintf(stderr, "fleet_runner: no collector folded a single frame\n");
    return 1;
  }

  // Retention: every collector sealed at least one window, and its log reads back clean with
  // at least the windows it sealed in this run (an earlier run's windows may precede them),
  // under strictly increasing window indices — a restart continues the log's numbering.
  const bool retained = !CollectorHistoryDir(flags, 0).empty();
  for (size_t i = 0; retained && i < collectors; ++i) {
    const std::string dir = CollectorHistoryDir(flags, i);
    const size_t at = logs[i].find(" history: ");
    unsigned long long sealed = 0;
    if (at == std::string::npos ||
        std::sscanf(logs[i].c_str() + at, " history: %llu", &sealed) != 1 || sealed == 0) {
      std::fprintf(stderr, "fleet_runner: collector %zu sealed no window into %s\n", i,
                   dir.c_str());
      return 1;
    }
    const WindowLogReadResult read = ReadWindowLog(dir);
    if (!read.clean || read.windows.size() < sealed) {
      std::fprintf(stderr,
                   "fleet_runner: %s reads back %zu windows (%s) after %llu were sealed\n",
                   dir.c_str(), read.windows.size(), read.clean ? "clean" : "damaged", sealed);
      return 1;
    }
    for (size_t w = 1; w < read.windows.size(); ++w) {
      if (read.windows[w].window_index <= read.windows[w - 1].window_index) {
        std::fprintf(stderr, "fleet_runner: %s holds window %llu after window %llu\n",
                     dir.c_str(),
                     static_cast<unsigned long long>(read.windows[w].window_index),
                     static_cast<unsigned long long>(read.windows[w - 1].window_index));
        return 1;
      }
    }
    std::printf("fleet_runner: collector %zu sealed %llu windows; %s reads back clean (%zu "
                "retained)\n",
                i, sealed, dir.c_str(), read.windows.size());
  }

  if (gray) {
    // Gray mode inverts the assertion: the anomaly plane must flag the delay-but-deliver
    // link, and the loss suspect set must stay silent on it — a loss-only fleet would have
    // shut down "clean" with the failure invisible.
    const std::string gray_name = fattree.topology().LinkName(GrayLink(fattree));
    bool anomaly_named = false;
    bool loss_named = false;
    for (size_t i = 0; i < collectors; ++i) {
      anomaly_named =
          anomaly_named || logs[i].find("anomaly[" + gray_name) != std::string::npos;
      loss_named = loss_named || logs[i].find(gray_name + "(est=") != std::string::npos;
    }
    if (!anomaly_named) {
      std::fprintf(stderr, "fleet_runner: anomaly plane never flagged %s\n",
                   gray_name.c_str());
      return 1;
    }
    if (loss_named) {
      std::fprintf(stderr,
                   "fleet_runner: loss suspects named the gray link %s — the pure-latency "
                   "scenario leaked a loss signal\n",
                   gray_name.c_str());
      return 1;
    }
    std::printf("fleet_runner: clean shutdown, %s flagged by the anomaly plane, loss "
                "suspects silent\n",
                gray_name.c_str());
    return 0;
  }

  // Localization agreement: some collector must have named the injected blackhole link even
  // under the impairment profile.
  const std::string failed_link =
      fattree.topology().LinkName(FleetScenario(fattree).failures[0].link);
  bool localized = false;
  for (size_t i = 0; i < collectors; ++i) {
    localized = localized || logs[i].find(failed_link) != std::string::npos;
  }
  if (!localized) {
    std::fprintf(stderr, "fleet_runner: no collector localized %s\n", failed_link.c_str());
    return 1;
  }
  std::printf("fleet_runner: clean shutdown, %s localized through the impaired fleet\n",
              failed_link.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.Describe("agents", "agent processes to launch (default 2)");
  flags.Describe("collectors", "partitioned collector processes to launch (default 2)");
  flags.Describe("k", "fat-tree arity every member derives the system from (default 4)");
  flags.Describe("port", "base UDP port; collector i binds port+i (default 9520)");
  flags.Describe("windows", "windows each agent reports before exiting (default 2)");
  flags.Describe("batch", "observations per wire frame (default 64)");
  flags.Describe("seed", "probe rng seed (default 9)");
  flags.Describe("key", "deployment key seed — frames under another key reject as tampered");
  flags.Describe("impair",
                 "impairment profile: burst=RATE[:LEN],dup=P,corrupt=P,delay=T,jitter=T,"
                 "rate=N,seed=S, or 'gray' for the delay-but-deliver run: lossless "
                 "delay+jitter wire, pure-latency failure, anomaly-plane collectors "
                 "(default: none)");
  flags.Describe("horizon", "collector liveness horizon in windows of silence (default 2)");
  flags.Describe("idle-ms", "collector exit after this long idle, once any frame arrived");
  flags.Describe("listen-seconds", "collector overall listening deadline (default 60)");
  flags.Describe("out-dir", "directory for per-member log files (default out/fleet)");
  flags.Describe("history-dir",
                 "collector i seals every window into a WindowLog under DIR/collector-i "
                 "(default off)");
  flags.Describe("role", "run one fleet member instead of the launcher: agent or collector");
  flags.Describe("index", "this member's index within its role (default 0)");

  if (!flags.Parse(argc, argv)) {
    return 1;
  }
  if (flags.Has("help")) {
    std::printf("%s", flags.HelpText(argv[0]).c_str());
    return 0;
  }
  const std::string role = flags.GetString("role", "");
  if (role == "agent") {
    return RunAgentRole(flags);
  }
  if (role == "collector") {
    return RunCollectorRole(flags);
  }
  if (!role.empty()) {
    std::fprintf(stderr, "unknown --role=%s\n", role.c_str());
    return 1;
  }
  return RunFleet(flags, argv[0]);
}
