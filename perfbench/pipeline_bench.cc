// pipeline_bench: the repository benchmark. Runs one workload (or all of them, in one process)
// over the pinger -> collector -> diagnoser -> window-log pipeline through DetectorSystem's
// public API, checks the outputs, and prints every metric by name with its unit. The last line
// of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   --trace=0  end-to-end metrics (tracing off): set-up time, window wall-clock, probe rate,
//              detection latency, accuracy, delta-apply latency, peak RSS.
//   --trace=1  per-layer metrics from TracedPipeline's spans, after checking that the traced
//              pipeline reproduces DetectorSystem's window-end suspect sets on the same inputs;
//              the span dump goes to <out-dir>/trace-<workload>-seed<N>.json.
//
// Workloads (see perfbench/README.md for why each exists): steady-k32, ingest-k16, churn-k16.
// --k overrides every workload's fat-tree arity (the k=4 self-test uses it).
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/spans.h"
#include "perfbench/traced_pipeline.h"
#include "src/common/flags.h"
#include "src/common/timer.h"
#include "src/detector/system.h"
#include "src/history/query.h"
#include "src/pmc/structured_fattree.h"
#include "src/routing/fattree_routing.h"
#include "src/sim/anomaly_scenarios.h"
#include "src/topo/fattree.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace detector;

constexpr int kSegments = 10;          // probe slices per window, one diagnosis per boundary
constexpr int kSetupRepeats = 5;       // set-ups per run; setup_s is their median
constexpr int kThreadCheckWindows = 2; // windows compared between 1 and N pool threads
constexpr int kMinWindows = 200;       // timed windows even when --seconds runs out first;
                                       // accuracy is scored over exactly these first windows
constexpr int kMaxTraceWindows = 40;   // traced windows (the span dump grows with each)
constexpr double kGrayDelayUs = 2500.0;
constexpr int kDeltaPasses = 8;        // drain/undrain passes over every ToR after the windows
constexpr double kQuietStealShare = 0.06;   // steal share of a busy vCPU that counts as heavy
// Longest wait for a heavy steal episode to end. Kept short so a run on a steadily stolen host
// still ends about 10 s after the --seconds it measures.
constexpr double kQuietWaitSeconds = 10.0;

struct WorkloadSpec {
  std::string name;
  int k = 16;
  bool structured = false;  // fixed structured matrix (else PMC with incremental repair)
  bool report_plane = false;
  bool anomaly = false;
  bool history = false;
  bool churn = false;
  StreamingViewMode view = StreamingViewMode::kCumulative;
  int loss_links = 2;       // full-loss links injected per window
  int gray_links = 0;       // latency-inflation links injected per window
  // Probe rate per pinger: the controller's default, except where the anomaly plane needs more.
  double pps = ControllerOptions{}.packets_per_second;
  int warmup_windows = 3;
  bool clean_warmup = false;  // warm-up windows without failures (anomaly baselines)
  double min_recall = 0.9;
  double min_precision = 0.9;
};

std::vector<WorkloadSpec> Workloads() {
  WorkloadSpec steady;
  steady.name = "steady-k32";
  steady.k = 32;
  steady.structured = true;

  WorkloadSpec ingest;
  ingest.name = "ingest-k16";
  ingest.report_plane = true;
  ingest.anomaly = true;
  ingest.history = true;
  ingest.gray_links = 1;
  ingest.clean_warmup = true;
  // 50 pps gives each path enough surviving probes per 3 s segment for the anomaly plane's RTT
  // sketches (min_rtt_samples); at 10 pps gray links go unseen.
  ingest.pps = 50.0;

  WorkloadSpec churn;
  churn.name = "churn-k16";
  churn.churn = true;
  churn.view = StreamingViewMode::kSliding;
  // Mid-window churn can take an injected link out of the matrix before it is seen.
  churn.min_recall = 0.8;
  return {steady, ingest, churn};
}

struct Fabric {
  explicit Fabric(int k) : ft(std::make_unique<FatTree>(k)),
                           routing(std::make_unique<FatTreeRouting>(*ft)) {}
  const Topology& topo() const { return ft->topology(); }
  std::unique_ptr<FatTree> ft;
  std::unique_ptr<FatTreeRouting> routing;
};

DetectorSystemOptions MakeOptions(const WorkloadSpec& spec, size_t threads,
                                  const std::string& history_dir) {
  DetectorSystemOptions options;
  options.probe_threads = threads;
  options.controller.packets_per_second = spec.pps;
  options.segments_per_window = kSegments;
  options.diagnose_every_segments = 1;
  options.streaming_view = spec.view;
  options.sliding_window_segments = 4;
  options.report_plane = spec.report_plane;
  if (spec.report_plane) {
    options.report_collectors = 2;
    options.report_ingest_shards = 2;
  }
  options.anomaly = spec.anomaly;
  if (spec.history) {
    options.history_dir = history_dir;
    // Bounded retention: the log rotates every 32 windows and keeps the newest 4 segments, so
    // appends include segment turnover and replay reads at most 128 windows.
    options.history_segment_records = 32;
    options.history_max_segments = 4;
  }
  return options;
}

std::unique_ptr<DetectorSystem> BuildSystem(const Fabric& fabric, const WorkloadSpec& spec,
                                            const DetectorSystemOptions& options) {
  if (spec.structured) {
    return std::make_unique<DetectorSystem>(
        fabric.topo(), StructuredFatTreeProbeMatrix(*fabric.ft, 1, 1), options);
  }
  return std::make_unique<DetectorSystem>(*fabric.routing, options);
}

// One window's inputs. Everything is drawn from the workload seed, so two consumers of the
// same generator sequence (the DetectorSystem run and the traced run) see identical windows.
struct WindowInput {
  FailureScenario scenario;
  std::vector<LinkId> loss_links;
  std::vector<LinkId> gray_links;
  std::vector<ChurnEvent> churn;      // applied mid-window, window-relative times
  std::vector<TopologyDelta> after;   // applied between this window and the next
};

class InputGenerator {
 public:
  InputGenerator(const Topology& topo, const WorkloadSpec& spec, uint64_t seed)
      : spec_(spec),
        rng_(HashCombine(seed, 0x696e707574ULL)),
        overlay_(topo),
        monitored_(topo.MonitoredLinks()),
        tors_(topo.NodesOfKind(NodeKind::kTor)) {
    rng_.Shuffle(tors_);
    if (spec.churn) {
      ChurnOptions churn;
      churn.link_events_per_minute = 6.0;
      churn.node_events_per_minute = 0.6;
      churn.mean_outage_seconds = 10.0;
      churn_ = std::make_unique<ChurnGenerator>(topo, churn);
    }
  }

  WindowInput Next(bool clean) {
    WindowInput in;
    if (!clean) {
      std::set<LinkId> used;
      auto pick = [&] {
        for (;;) {
          const LinkId link = monitored_[rng_.NextBounded(monitored_.size())];
          if (overlay_.IsLinkLive(link) && used.insert(link).second) {
            return link;
          }
        }
      };
      for (int i = 0; i < spec_.loss_links; ++i) {
        LinkFailure failure;
        failure.link = pick();
        failure.type = FailureType::kFullLoss;
        failure.loss_rate = 1.0;
        in.scenario.failures.push_back(failure);
        in.loss_links.push_back(failure.link);
      }
      for (int i = 0; i < spec_.gray_links; ++i) {
        const LinkId link = pick();
        const FailureScenario gray = GrayLatencyScenario(link, kGrayDelayUs);
        in.scenario.failures.insert(in.scenario.failures.end(), gray.failures.begin(),
                                    gray.failures.end());
        in.gray_links.push_back(link);
      }
    }
    if (churn_ != nullptr) {
      const double window = DetectorSystemOptions{}.window_seconds;
      const std::vector<ChurnEvent> trace = churn_->Sample(window, rng_);
      in.churn = WindowSlice(trace, 0.0, window);
      for (const ChurnEvent& ev : WindowSlice(trace, window, 1e300)) {
        in.after.push_back(ev.delta);
      }
      // ToR maintenance wave: the previous window's drained ToR returns, the next one drains.
      if (drained_ != kInvalidNode) {
        in.after.push_back(NodeDelta(drained_, ChurnAction::kUndrain));
      }
      drained_ = tors_[wave_++ % tors_.size()];
      in.after.push_back(NodeDelta(drained_, ChurnAction::kDrain));
      for (const ChurnEvent& ev : in.churn) {
        overlay_.Apply(ev.delta);
      }
      for (const TopologyDelta& delta : in.after) {
        overlay_.Apply(delta);
      }
    }
    return in;
  }

  // Deltas that return the topology to its initial state (the last wave's ToR undrains).
  std::vector<TopologyDelta> Restore() const {
    std::vector<TopologyDelta> out;
    if (drained_ != kInvalidNode) {
      out.push_back(NodeDelta(drained_, ChurnAction::kUndrain));
    }
    return out;
  }

  static TopologyDelta NodeDelta(NodeId node, ChurnAction action) {
    TopologyDelta delta;
    delta.nodes.push_back(NodeChurn{node, action});
    return delta;
  }

 private:
  const WorkloadSpec spec_;
  Rng rng_;
  LinkStateOverlay overlay_;  // replica of the system's overlay, to inject on live links only
  std::vector<LinkId> monitored_;
  std::vector<NodeId> tors_;
  std::unique_ptr<ChurnGenerator> churn_;
  NodeId drained_ = kInvalidNode;
  size_t wave_ = 0;
};

// What a window produced that the benchmark scores and compares.
struct WindowRecord {
  int64_t probes = 0;
  size_t injected = 0;
  size_t detected = 0;
  size_t true_positives = 0;
  std::vector<double> first_detect;  // simulated seconds, per injected link seen
  std::vector<SuspectLink> final_suspects;
  std::vector<LinkAnomaly> final_anomalies;
  size_t anomaly_links = 0;  // distinct links the anomaly plane named at any boundary
};

WindowRecord Score(const WindowInput& in, const DetectorSystem::StreamingWindowResult& out,
                   bool anomaly) {
  WindowRecord r;
  r.probes = out.window.probes_sent;
  r.final_suspects = out.window.localization.links;
  r.final_anomalies = out.window.anomalies;
  std::set<LinkId> detected;
  for (const SuspectLink& s : out.window.localization.links) {
    detected.insert(s.link);
  }
  if (anomaly) {
    for (const LinkAnomaly& a : out.window.anomalies) {
      detected.insert(a.link);
    }
  }
  std::set<LinkId> injected(in.loss_links.begin(), in.loss_links.end());
  injected.insert(in.gray_links.begin(), in.gray_links.end());
  r.injected = injected.size();
  r.detected = detected.size();
  for (const LinkId link : injected) {
    r.true_positives += detected.count(link);
  }
  for (const LinkId link : in.loss_links) {
    const double t = out.FirstDetectionSeconds(link);
    if (t >= 0.0) {
      r.first_detect.push_back(t);
    }
  }
  std::set<LinkId> flagged;
  for (const auto& d : out.timeline) {
    for (const LinkAnomaly& a : d.anomalies) {
      flagged.insert(a.link);
    }
  }
  r.anomaly_links = flagged.size();
  for (const LinkId link : in.gray_links) {
    for (const auto& d : out.timeline) {
      const bool named = std::any_of(d.anomalies.begin(), d.anomalies.end(),
                                     [&](const LinkAnomaly& a) { return a.link == link; });
      if (named) {
        r.first_detect.push_back(d.time_seconds);
        break;
      }
    }
  }
  return r;
}

// Everything observable about a window except wall-clock: the thread-count identity surface.
struct Fingerprint {
  std::vector<std::vector<SuspectLink>> timeline;
  std::vector<ServerLinkAlarm> alarms;
  std::vector<LinkAnomaly> anomalies;
  int64_t probes = 0;
  int64_t bytes = 0;

  static Fingerprint Of(const DetectorSystem::StreamingWindowResult& out) {
    Fingerprint f;
    for (const auto& d : out.timeline) {
      f.timeline.push_back(d.localization.links);
    }
    f.alarms = out.window.server_link_alarms;
    f.anomalies = out.window.anomalies;
    f.probes = out.window.probes_sent;
    f.bytes = out.window.bytes_sent;
    return f;
  }
  bool operator==(const Fingerprint&) const = default;
};

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// CPU time the hypervisor gave to other guests (/proc/stat "steal", in clock ticks), summed
// over all CPUs; 0 where the kernel does not report it.
int64_t StealTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) {
    return 0;
  }
  long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  const int n = std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld", &v[0], &v[1],
                            &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return n == 8 ? v[7] : 0;
}

// One timed operation: its wall-clock, the host steal ticks that accrued meanwhile, and the
// probes it sent (windows only).
struct TimedSample {
  double ms = 0.0;
  int64_t steal = 0;
  int64_t probes = 0;
  int cpu = -1;  // the CPU the sample ran pinned to, -1 = not pinned
};

// The samples the host left alone: those during which the steal counter did not move. On a
// shared VM, hypervisor steal came in multi-minute episodes and slowed windows by up to 1.7x;
// timing only unstolen samples keeps those episodes out of the figures. When fewer than a
// quarter of the samples are unstolen, the least-stolen half stands in.
std::vector<TimedSample> Unstolen(std::vector<TimedSample> samples) {
  std::vector<TimedSample> clean;
  for (const TimedSample& t : samples) {
    if (t.steal == 0) {
      clean.push_back(t);
    }
  }
  if (clean.size() * 4 >= samples.size()) {
    return clean;
  }
  std::stable_sort(samples.begin(), samples.end(),
                   [](const TimedSample& a, const TimedSample& b) { return a.steal < b.steal; });
  samples.resize((samples.size() + 1) / 2);
  return samples;
}

std::vector<double> Millis(const std::vector<TimedSample>& samples) {
  std::vector<double> ms;
  for (const TimedSample& t : samples) {
    ms.push_back(t.ms);
  }
  return ms;
}

// Returns freed heap to the kernel and resets the process's peak-RSS mark to the current RSS
// (Linux: "5" written to /proc/self/clear_refs), so a workload run after another in the same
// process reports its own peak. Returns false where the kernel does not support the reset.
bool ResetPeakRss() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) {
    return false;
  }
  const bool written = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && written;
}

// A "<field>: <n> kB" line of /proc/self/status in MB, or -1 where it is missing.
double ProcStatusMb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return -1.0;
  }
  const size_t len = std::strlen(field);
  char line[256];
  long long kib = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':' &&
        std::sscanf(line + len + 1, "%lld", &kib) == 1) {
      break;
    }
  }
  std::fclose(f);
  return kib < 0 ? -1.0 : static_cast<double>(kib) / 1024.0;
}

// Share of `threads` busy vCPUs' time the hypervisor stole during a one-second spin on each.
// Idle vCPUs accrue no steal, so the probe keeps as many busy as the run will.
double SpinStealShare(size_t threads) {
  std::atomic<bool> stop{false};
  const int64_t before = StealTicks();
  WallTimer timer;
  std::vector<std::thread> spinners;
  for (size_t t = 0; t < threads; ++t) {
    spinners.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::seconds(1));
  stop.store(true);
  for (std::thread& spinner : spinners) {
    spinner.join();
  }
  return static_cast<double>(StealTicks() - before) / static_cast<double>(sysconf(_SC_CLK_TCK)) /
         (timer.ElapsedSeconds() * static_cast<double>(threads));
}

// On a shared VM, hypervisor steal came in episodes of one to three minutes. They slowed every
// timing by up to 1.5x, even in windows during which no steal was recorded, so the steal filter
// cannot remove them. A run that starts in one waits, sleeping between probes, for at most
// kQuietWaitSeconds, so fewer runs measure inside it. Returns the last probe's steal share.
double WaitForQuietHost(size_t threads, double& waited_s) {
  WallTimer waited;
  double share = SpinStealShare(threads);
  while (share > kQuietStealShare && waited.ElapsedSeconds() < kQuietWaitSeconds) {
    std::this_thread::sleep_for(std::chrono::seconds(1));
    share = SpinStealShare(threads);
  }
  waited_s = waited.ElapsedSeconds();
  return share;
}

// The median of the samples; for samples pinned to CPUs, the mean over CPUs of each CPU's
// median. vCPUs of a shared VM ran the same work at different speeds, and one median over a
// mixture of per-CPU clusters jumps between them as their sizes shift; the mean of per-CPU
// medians moves in proportion to each CPU's speed.
double PinnedMedianMs(const std::vector<TimedSample>& samples, std::string* per_cpu) {
  std::map<int, std::vector<double>> by_cpu;
  for (const TimedSample& t : samples) {
    by_cpu[t.cpu].push_back(t.ms);
  }
  if (by_cpu.empty() || by_cpu.count(-1) != 0) {
    return Quantile(Millis(samples), 0.5);
  }
  double sum = 0.0;
  for (const auto& [cpu, ms] : by_cpu) {
    const double median = Quantile(ms, 0.5);
    sum += median;
    char buf[64];
    std::snprintf(buf, sizeof(buf), " cpu%d=%.3f(n=%zu)", cpu, median, ms.size());
    *per_cpu += buf;
  }
  return sum / static_cast<double>(by_cpu.size());
}

// Peak RSS since the last ResetPeakRss: VmHWM, else the getrusage maximum (the peak over the
// process's lifetime).
double PeakRssMb() {
  if (const double hwm = ProcStatusMb("VmHWM"); hwm >= 0.0) {
    return hwm;
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// Pins the calling thread to the index-th CPU of its affinity mask (round robin) and restores
// the mask on destruction. The ToR drain/undrain phase rotates over the CPUs because on a
// shared VM each vCPU's speed depends on what the host runs beside it: sub-millisecond timings
// taken on one vCPU came out bimodal across runs, reporting that vCPU's neighbour, not the code.
class ScopedCpuPin {
 public:
  explicit ScopedCpuPin(size_t index) {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0 || CPU_COUNT(&saved_) <= 1) {
      return;
    }
    size_t nth = index % static_cast<size_t>(CPU_COUNT(&saved_));
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_) && nth-- == 0) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        if (sched_setaffinity(0, sizeof(one), &one) == 0) {
          cpu_ = cpu;
        }
        break;
      }
    }
  }
  ~ScopedCpuPin() {
    if (cpu_ >= 0) {
      sched_setaffinity(0, sizeof(saved_), &saved_);
    }
  }
  int cpu() const { return cpu_; }
  ScopedCpuPin(const ScopedCpuPin&) = delete;
  ScopedCpuPin& operator=(const ScopedCpuPin&) = delete;

 private:
  cpu_set_t saved_;
  int cpu_ = -1;
};

// One DetectorSystem with its fabric, input stream and window RNG.
struct Session {
  std::unique_ptr<Fabric> fabric;
  std::unique_ptr<DetectorSystem> system;
  std::unique_ptr<InputGenerator> gen;
  Rng rng;
  std::string history_dir;
  double setup_s = 0.0;
  // Mean ApplyTopologyDelta wall-clock of each group of between-window deltas. Drains,
  // undrains and recoveries cost different amounts, so a median over single deltas would
  // jump between those clusters; a median over group means does not.
  std::vector<TimedSample> delta_samples;
  int64_t deltas_applied = 0;

  void ApplyDeltas(std::span<const TopologyDelta> deltas) {
    if (deltas.empty()) {
      return;
    }
    const int64_t steal = StealTicks();
    WallTimer timer;
    for (const TopologyDelta& delta : deltas) {
      system->ApplyTopologyDelta(delta);
    }
    const double ms = timer.ElapsedMillis() / static_cast<double>(deltas.size());
    delta_samples.push_back(TimedSample{ms, StealTicks() - steal, 0});
    deltas_applied += static_cast<int64_t>(deltas.size());
  }

  // Runs one window and the deltas that follow it.
  DetectorSystem::StreamingWindowResult Run(const WindowInput& in, double* wall_ms) {
    WallTimer timer;
    DetectorSystem::StreamingWindowResult out =
        system->RunWindowStreaming(in.scenario, in.churn, rng);
    if (wall_ms != nullptr) {
      *wall_ms = timer.ElapsedMillis();
    }
    ApplyDeltas(in.after);
    return out;
  }
};

uint64_t WindowRngSeed(uint64_t seed) { return HashCombine(seed, 0x77696e646f77ULL); }

// Builds a session and runs its warm-up windows — the work setup_s times.
std::unique_ptr<Session> BuildSession(const WorkloadSpec& spec, uint64_t seed, size_t threads,
                                      const std::string& history_dir) {
  if (!history_dir.empty()) {
    std::filesystem::remove_all(history_dir);
  }
  WallTimer timer;
  auto s = std::make_unique<Session>(Session{nullptr, nullptr, nullptr, Rng(WindowRngSeed(seed)),
                                             history_dir, 0.0, {}, 0});
  s->fabric = std::make_unique<Fabric>(spec.k);
  s->system = BuildSystem(*s->fabric, spec, MakeOptions(spec, threads, history_dir));
  s->gen = std::make_unique<InputGenerator>(s->fabric->topo(), spec, seed);
  for (int w = 0; w < spec.warmup_windows; ++w) {
    s->Run(s->gen->Next(spec.clean_warmup), nullptr);
  }
  s->setup_s = timer.ElapsedSeconds();
  s->delta_samples.clear();
  s->deltas_applied = 0;
  return s;
}

// ---- result line ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;

  void Check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      failures.push_back(what);
    }
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

void PrintMetrics(const std::string& workload, const Result& r) {
  for (const Metric& m : r.metrics) {
    std::printf("  %-12s %-34s %16.6f %s\n", workload.c_str(), m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& f : r.failures) {
    std::printf("  %-12s CHECK FAILED: %s\n", workload.c_str(), f.c_str());
  }
}

struct RunContext {
  uint64_t seed = 1;
  double seconds = 10.0;
  size_t threads = 1;
  std::string out_dir;
};

void PrintRunInfo(const WorkloadSpec& spec, const RunContext& ctx, const DetectorSystem& system,
                  bool trace) {
  std::printf(
      "{\"run\": {\"workload\": %s, \"seed\": %llu, \"nproc\": %u, \"pool_threads\": %zu, "
      "\"build_type\": %s, \"trace\": %d, \"fattree_k\": %d, \"matrix\": %s, "
      "\"probe_matrix_paths\": %zu, \"pinglists\": %zu, \"report_transport\": %s, "
      "\"collectors\": %d, \"ingest_shards_per_collector\": %d, \"view\": %s, "
      "\"segments_per_window\": %d, \"pps_per_pinger\": %g}}\n",
      JsonString(spec.name).c_str(), static_cast<unsigned long long>(ctx.seed),
      std::thread::hardware_concurrency(), ctx.threads, JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      trace ? 1 : 0, spec.k, JsonString(spec.structured ? "structured(1,1)" : "pmc(1,1)").c_str(),
      system.probe_matrix().NumPaths(), system.pinglists().size(),
      JsonString(spec.report_plane ? "in-process lossless loopback (no socket)" : "none (direct)")
          .c_str(),
      spec.report_plane ? 2 : 0, spec.report_plane ? 2 : 0,
      JsonString(spec.view == StreamingViewMode::kSliding ? "sliding(4)" : "cumulative").c_str(),
      kSegments, spec.pps);
}

// ---- shared post-run checks ----------------------------------------------------------------

struct Accuracy {
  size_t injected = 0;
  size_t detected = 0;
  size_t true_positives = 0;
  std::vector<double> first_detect;

  void Add(const WindowRecord& r) {
    injected += r.injected;
    detected += r.detected;
    true_positives += r.true_positives;
    first_detect.insert(first_detect.end(), r.first_detect.begin(), r.first_detect.end());
  }
  double recall() const {
    return injected == 0 ? 1.0 : static_cast<double>(true_positives) / injected;
  }
  double precision() const {
    return detected == 0 ? 1.0 : static_cast<double>(true_positives) / detected;
  }
};

void CheckAccuracy(const WorkloadSpec& spec, const Accuracy& acc, Result& result) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "recall %.4f >= %.2f (injected links localized)",
                acc.recall(), spec.min_recall);
  result.Check(acc.recall() >= spec.min_recall, buf);
  std::snprintf(buf, sizeof(buf), "precision %.4f >= %.2f", acc.precision(),
                spec.min_precision);
  result.Check(acc.precision() >= spec.min_precision, buf);
}

// Replays the retained window log and compares every boundary of the windows `live` recorded
// (warm-up windows are in the log but not compared). Returns the number of compared boundaries;
// mismatches counts the ones that differ.
size_t CheckReplay(const std::string& dir, const Topology& topo, const ProbeMatrix& matrix,
                   const DetectorSystemOptions& options,
                   const std::map<uint64_t, std::vector<std::vector<SuspectLink>>>& live,
                   size_t& mismatches, size_t& windows, double& replay_ms) {
  const QueryEngine query = QueryEngine::FromDir(dir, options.report_key);
  ReplayOptions replay_options;
  replay_options.pll = options.pll;
  WallTimer timer;
  const std::vector<ReplayedWindow> replayed = query.Replay(topo, matrix, replay_options);
  replay_ms = timer.ElapsedMillis();
  windows = replayed.size();
  size_t boundaries = 0;
  mismatches = 0;
  for (const ReplayedWindow& w : replayed) {
    const auto it = live.find(w.window_index);
    if (it == live.end()) {
      continue;
    }
    if (it->second.size() != w.boundaries.size()) {
      mismatches += std::max<size_t>(1, w.boundaries.size());
      boundaries += std::max<size_t>(1, w.boundaries.size());
      continue;
    }
    for (size_t b = 0; b < w.boundaries.size(); ++b) {
      ++boundaries;
      if (w.boundaries[b].localization.links != it->second[b]) {
        ++mismatches;
      }
    }
  }
  if (!query.ok() || boundaries == 0) {
    ++mismatches;
    ++boundaries;
  }
  return boundaries;
}

std::vector<std::vector<SuspectLink>> TimelineSuspects(
    const DetectorSystem::StreamingWindowResult& out) {
  std::vector<std::vector<SuspectLink>> t;
  for (const auto& d : out.timeline) {
    t.push_back(d.localization.links);
  }
  return t;
}

// ---- end-to-end run ------------------------------------------------------------------------

Result RunEndToEnd(const WorkloadSpec& spec, const RunContext& ctx) {
  Result result;
  const std::string base = ctx.out_dir + "/" + spec.name + "-seed" + std::to_string(ctx.seed);
  auto history_dir = [&](int rep) {
    return spec.history ? base + "-wlog" + std::to_string(rep) : std::string();
  };

  // Set-up, repeated; the last session is the measured one. Only one session is alive at a
  // time, and the peak-RSS mark is reset first, so peak_rss_mb is one system's footprint.
  const bool rss_reset = ResetPeakRss();
  // Heap the allocator kept from an earlier workload of the same process counts in this one's
  // peak; the RSS at the reset shows how much that is.
  const double rss_at_reset = ProcStatusMb("VmRSS");
  std::vector<double> setup_samples;
  std::unique_ptr<Session> main;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    main.reset();
    if (spec.history && rep > 0) {
      std::filesystem::remove_all(history_dir(rep - 1));
    }
    main = BuildSession(spec, ctx.seed, ctx.threads, history_dir(rep));
    setup_samples.push_back(main->setup_s);
  }
  PrintRunInfo(spec, ctx, *main->system, /*trace=*/false);

  // The first windows after warm-up are the thread-count check: a 1-thread session replays
  // them once the measured session is gone.
  std::vector<Fingerprint> check_prints;
  for (int w = 0; w < kThreadCheckWindows; ++w) {
    check_prints.push_back(Fingerprint::Of(main->Run(main->gen->Next(false), nullptr)));
  }
  main->delta_samples.clear();
  main->deltas_applied = 0;

  double waited_s = 0.0;
  const double quiet_share = WaitForQuietHost(ctx.threads, waited_s);
  std::printf("%s: quiet-host gate waited %.1f s, last probe steal %.1f%% per busy vCPU\n",
              spec.name.c_str(), waited_s, quiet_share * 100.0);

  // Timed windows.
  Accuracy acc;
  std::vector<TimedSample> window_samples;
  std::map<uint64_t, std::vector<std::vector<SuspectLink>>> live;
  const int64_t steal_before = StealTicks();
  WallTimer run_timer;
  while (run_timer.ElapsedSeconds() < ctx.seconds ||
         static_cast<int>(window_samples.size()) < kMinWindows) {
    const WindowInput in = main->gen->Next(false);
    const uint64_t index = main->system->history_windows_sealed();
    double ms = 0.0;
    const int64_t steal = StealTicks();
    const DetectorSystem::StreamingWindowResult out = main->Run(in, &ms);
    const int64_t stolen = StealTicks() - steal;
    const WindowRecord r = Score(in, out, spec.anomaly);
    if (static_cast<int>(window_samples.size()) < kMinWindows) {
      acc.Add(r);  // a fixed prefix, so accuracy depends on the seed and the code, not the host
    }
    window_samples.push_back(TimedSample{ms, stolen, r.probes});
    if (spec.history) {
      live[index] = TimelineSuspects(out);
      while (live.size() > 256) {
        live.erase(live.begin());
      }
    }
  }
  const size_t windows = window_samples.size();
  // Share of the host's CPU capacity stolen during the timed windows: context for outliers.
  const double steal_share =
      static_cast<double>(StealTicks() - steal_before) / static_cast<double>(sysconf(_SC_CLK_TCK)) /
      (run_timer.ElapsedSeconds() * std::max(1u, std::thread::hardware_concurrency()));
  result.attempted += static_cast<int64_t>(windows);
  CheckAccuracy(spec, acc, result);

  const DetectorSystemOptions options = MakeOptions(spec, ctx.threads, main->history_dir);
  if (spec.report_plane) {
    // On the lossless loopback every emitted frame must fold (or be counted as dropped).
    uint64_t emitted = 0;
    for (size_t c = 0; c < options.report_collectors; ++c) {
      emitted += main->system->report_transport(c)->stats().frames_sent;
    }
    const CollectorStats stats = main->system->collector_group()->stats();
    const uint64_t dropped = stats.duplicates_dropped + stats.decode_errors +
                             stats.tampered_dropped + stats.stale_window_dropped +
                             stats.queue_overflow_dropped + stats.wrong_partition_dropped;
    result.attempted += static_cast<int64_t>(emitted);
    result.failed += static_cast<int64_t>(emitted - std::min(emitted, stats.frames_folded));
    result.Check(stats.frames_folded + dropped == emitted,
                 "folded + dropped == emitted on the lossless wire (" +
                     std::to_string(stats.frames_folded) + " + " + std::to_string(dropped) +
                     " vs " + std::to_string(emitted) + ")");
  }
  if (spec.history) {
    const WindowLogWriter* log = main->system->history_log();
    const uint64_t sealed = main->system->history_windows_sealed();
    const uint64_t appended = log == nullptr ? 0 : log->records_appended();
    result.attempted += static_cast<int64_t>(sealed);
    result.failed += static_cast<int64_t>(sealed - std::min(sealed, appended));
    result.Check(log != nullptr && log->ok() && appended == sealed,
                 "every sealed window appended to the log");
    size_t mismatches = 0;
    size_t replayed_windows = 0;
    double replay_ms = 0.0;
    const size_t boundaries =
        CheckReplay(main->history_dir, main->fabric->topo(), main->system->probe_matrix(),
                    options, live, mismatches, replayed_windows, replay_ms);
    result.attempted += static_cast<int64_t>(boundaries);
    result.failed += static_cast<int64_t>(mismatches);
    result.Check(mismatches == 0, "replay equals live at every boundary (" +
                                      std::to_string(mismatches) + " of " +
                                      std::to_string(boundaries) + " differ)");
    std::printf("replay: %zu windows, %zu boundaries in %.1f ms\n", replayed_windows, boundaries,
                replay_ms);
  }

  // Between-window topology deltas: the churn workload applies them after every window; the
  // others time a drain/undrain of every ToR, in id order, once the windows are done — the
  // same maintenance schedule whatever the seed, since repair cost depends on the order.
  if (spec.churn) {
    for (const TopologyDelta& delta : main->gen->Restore()) {
      main->system->ApplyTopologyDelta(delta);
    }
    result.Check(main->system->overlay().NumDeadLinks() == 0,
                 "churn trace restores the topology (" +
                     std::to_string(main->system->overlay().NumDeadLinks()) + " dead links)");
  } else {
    // A fixed number of passes, not a time budget: ToR pairs differ several-fold in cost (on
    // ingest-k16 a tenth under 2 ms, half over 4 ms), so a timed phase would time a mix of ToRs
    // that depends on the host's speed, and its median would move with that mix.
    const std::vector<NodeId> tors = main->fabric->topo().NodesOfKind(NodeKind::kTor);
    for (size_t i = 0; i < tors.size() * kDeltaPasses; ++i) {
      const NodeId tor = tors[i % tors.size()];
      const TopologyDelta wave[] = {InputGenerator::NodeDelta(tor, ChurnAction::kDrain),
                                    InputGenerator::NodeDelta(tor, ChurnAction::kUndrain)};
      const ScopedCpuPin pin(i);
      main->ApplyDeltas(wave);
      main->delta_samples.back().cpu = pin.cpu();
    }
  }
  result.attempted += main->deltas_applied;

  const std::vector<TimedSample> timed = Unstolen(window_samples);
  const std::vector<TimedSample> deltas = Unstolen(main->delta_samples);
  double timed_ms = 0.0;
  int64_t timed_probes = 0;
  for (const TimedSample& t : timed) {
    timed_ms += t.ms;
    timed_probes += t.probes;
  }
  std::printf("%s: %zu timed windows (%zu used), %zu delta groups (%zu used), %zu set-ups, "
              "host steal %.2f%%\n",
              spec.name.c_str(), windows, timed.size(), main->delta_samples.size(), deltas.size(),
              setup_samples.size(), steal_share * 100.0);
  const std::vector<double> window_ms = Millis(timed);
  result.Add("setup_s", Quantile(setup_samples, 0.5), "s");
  result.Add("window_ms.p50", Quantile(window_ms, 0.5), "ms");
  result.Add("window_ms.p95", Quantile(window_ms, 0.95), "ms");
  result.Add("probes_per_s", static_cast<double>(timed_probes) / (timed_ms * 1e-3), "1/s");
  result.Add("first_detect_s.p50", Quantile(acc.first_detect, 0.5), "sim_s");
  result.Add("recall", acc.recall(), "ratio");
  result.Add("precision", acc.precision(), "ratio");
  std::string per_cpu;
  result.Add("delta_apply_ms.p50", PinnedMedianMs(deltas, &per_cpu), "ms");
  if (!per_cpu.empty()) {
    std::printf("%s: delta_apply median per pinned CPU, ms:%s\n", spec.name.c_str(),
                per_cpu.c_str());
  }
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  if (rss_reset) {
    std::printf("%s: peak RSS %.1f MB, of which %.1f MB resident before the first set-up\n",
                spec.name.c_str(), PeakRssMb(), rss_at_reset);
  } else {
    std::printf("%s: peak-RSS reset unsupported; peak_rss_mb is the process lifetime peak\n",
                spec.name.c_str());
  }
  if (!main->history_dir.empty()) {
    std::filesystem::remove_all(main->history_dir);
  }
  main.reset();

  // 1 thread vs N threads: the check windows must produce identical fingerprints.
  std::unique_ptr<Session> one = BuildSession(spec, ctx.seed, 1, history_dir(kSetupRepeats));
  size_t thread_mismatches = 0;
  for (const Fingerprint& expected : check_prints) {
    thread_mismatches += Fingerprint::Of(one->Run(one->gen->Next(false), nullptr)) == expected
                             ? 0
                             : 1;
  }
  if (!one->history_dir.empty()) {
    std::filesystem::remove_all(one->history_dir);
  }
  result.attempted += kThreadCheckWindows;
  result.failed += static_cast<int64_t>(thread_mismatches);
  result.Check(thread_mismatches == 0, "1-thread and " + std::to_string(ctx.threads) +
                                           "-thread windows produce the same fingerprint");
  return result;
}

// ---- traced run ----------------------------------------------------------------------------

struct SpanTotals {
  int64_t calls = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
  std::vector<double> durations_ms;
};

std::map<std::string, SpanTotals> Analyse(const SpanRecorder& rec) {
  std::map<std::string, SpanTotals> out;
  for (const auto& buffer : rec.buffers()) {
    std::vector<double> child_ns(buffer->spans.size(), 0.0);
    for (size_t i = 0; i < buffer->spans.size(); ++i) {
      const Span& s = buffer->spans[i];
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    for (size_t i = 0; i < buffer->spans.size(); ++i) {
      const Span& s = buffer->spans[i];
      SpanTotals& t = out[rec.names()[static_cast<size_t>(s.name)]];
      const double dur = static_cast<double>(s.end_ns - s.start_ns);
      ++t.calls;
      t.total_ns += dur;
      t.self_ns += dur - child_ns[i];
      t.durations_ms.push_back(dur * 1e-6);
    }
  }
  return out;
}

bool WriteSpanDump(const std::string& path, const WorkloadSpec& spec, const RunContext& ctx,
                   int windows, const SpanRecorder& rec,
                   const std::map<std::string, SpanTotals>& totals, const Result& result) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  int64_t origin = INT64_MAX;
  for (const auto& buffer : rec.buffers()) {
    for (const Span& s : buffer->spans) {
      origin = std::min(origin, s.start_ns);
    }
  }
  std::fprintf(f, "{\"workload\": %s, \"seed\": %llu, \"pool_threads\": %zu, \"windows\": %d,\n",
               JsonString(spec.name).c_str(), static_cast<unsigned long long>(ctx.seed),
               ctx.threads, windows);
  std::fprintf(f, " \"per_layer\": {");
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::fprintf(f, "%s%s: {\"value\": %s, \"unit\": %s}", i == 0 ? "" : ", ",
                 JsonString(m.name).c_str(), JsonNumber(m.value).c_str(),
                 JsonString(m.unit).c_str());
  }
  std::fprintf(f, "},\n \"spans_by_name\": {");
  bool first = true;
  for (const auto& [name, t] : totals) {
    std::fprintf(f, "%s%s: {\"calls\": %lld, \"total_ms\": %s, \"self_ms\": %s}",
                 first ? "" : ", ", JsonString(name).c_str(), static_cast<long long>(t.calls),
                 JsonNumber(t.total_ns * 1e-6).c_str(), JsonNumber(t.self_ns * 1e-6).c_str());
    first = false;
  }
  std::fprintf(f, "},\n \"names\": [");
  for (size_t i = 0; i < rec.names().size(); ++i) {
    std::fprintf(f, "%s%s", i == 0 ? "" : ", ", JsonString(rec.names()[i]).c_str());
  }
  std::fprintf(f, "],\n \"span_fields\": [\"name\", \"thread\", \"parent\", \"window\", "
                  "\"segment\", \"start_us\", \"end_us\"],\n \"spans\": [");
  first = true;
  for (const auto& buffer : rec.buffers()) {
    for (const Span& s : buffer->spans) {
      std::fprintf(f, "%s\n[%d,%d,%d,%d,%d,%.3f,%.3f]", first ? "" : ",", s.name, buffer->thread,
                   s.parent, s.window, s.segment, static_cast<double>(s.start_ns - origin) * 1e-3,
                   static_cast<double>(s.end_ns - origin) * 1e-3);
      first = false;
    }
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

Result RunTraced(const WorkloadSpec& spec, const RunContext& ctx) {
  Result result;
  const std::string base = ctx.out_dir + "/" + spec.name + "-seed" + std::to_string(ctx.seed);
  const std::string live_log = spec.history ? base + "-wlog-live" : std::string();
  const std::string traced_log = spec.history ? base + "-wlog-traced" : std::string();

  // Reference: the untraced DetectorSystem on the same inputs. Its windows alternate with the
  // traced ones, so host drift falls on both alike and trace.overhead_ms compares like with like.
  std::unique_ptr<Session> ref = BuildSession(spec, ctx.seed, ctx.threads, live_log);
  PrintRunInfo(spec, ctx, *ref->system, /*trace=*/true);

  // Traced pipeline: same fabric, options and input sequence.
  if (!traced_log.empty()) {
    std::filesystem::remove_all(traced_log);
  }
  const Fabric fabric(spec.k);
  const DetectorSystemOptions options = MakeOptions(spec, ctx.threads, traced_log);
  std::unique_ptr<ThreadPool> pool =
      ctx.threads > 1 ? std::make_unique<ThreadPool>(ctx.threads) : nullptr;
  SpanRecorder rec(ctx.threads);
  std::unique_ptr<TracedPipeline> traced;
  double pmc_build_s = 0.0;
  if (spec.structured) {
    const int64_t start = NowNs();
    ProbeMatrix matrix = StructuredFatTreeProbeMatrix(*fabric.ft, 1, 1);
    pmc_build_s = static_cast<double>(NowNs() - start) * 1e-9;
    traced = std::make_unique<TracedPipeline>(fabric.topo(), nullptr, std::move(matrix), options,
                                              rec, pool.get());
  } else {
    traced = std::make_unique<TracedPipeline>(fabric.topo(), fabric.routing.get(), ProbeMatrix{},
                                              options, rec, pool.get());
    pmc_build_s = traced->counters().pmc_build_s;
  }
  InputGenerator gen(fabric.topo(), spec, ctx.seed);
  Rng rng(WindowRngSeed(ctx.seed));
  auto run_traced = [&](const WindowInput& in, double* wall_ms) {
    WallTimer timer;
    auto out = traced->RunWindow(in.scenario, in.churn, rng);
    if (wall_ms != nullptr) {
      *wall_ms = timer.ElapsedMillis();
    }
    for (const TopologyDelta& delta : in.after) {
      traced->ApplyTopologyDelta(delta);
    }
    return out;
  };
  for (int w = 0; w < spec.warmup_windows; ++w) {
    run_traced(gen.Next(spec.clean_warmup), nullptr);
  }
  const TraceCounters before = traced->counters();
  const CollectorStats group_before =
      traced->collector_group() ? traced->collector_group()->stats() : CollectorStats{};
  const uint64_t log_bytes_before =
      traced->history_log() ? traced->history_log()->bytes_appended() : 0;
  const uint64_t log_records_before =
      traced->history_log() ? traced->history_log()->records_appended() : 0;

  tls_spans = &rec.main();
  rec.set_enabled(true);
  std::vector<double> ref_ms;
  std::vector<double> traced_ms;
  std::vector<WindowRecord> traced_records;
  std::map<uint64_t, std::vector<std::vector<SuspectLink>>> live;
  size_t mismatched_windows = 0;
  WallTimer run_timer;
  while ((run_timer.ElapsedSeconds() < ctx.seconds || traced_ms.size() < 4) &&
         static_cast<int>(traced_ms.size()) < kMaxTraceWindows) {
    const size_t i = traced_ms.size();
    const WindowInput ref_in = ref->gen->Next(false);
    const WindowInput in = gen.Next(false);
    WindowRecord expected;
    DetectorSystem::StreamingWindowResult out;
    double ref_window_ms = 0.0;
    double traced_window_ms = 0.0;
    auto run_reference = [&] {
      expected = Score(ref_in, ref->Run(ref_in, &ref_window_ms), spec.anomaly);
    };
    // Which of the pair runs first alternates, so neither gets the other's warm caches.
    if (i % 2 == 0) {
      run_reference();
      out = run_traced(in, &traced_window_ms);
    } else {
      out = run_traced(in, &traced_window_ms);
      run_reference();
    }
    ref_ms.push_back(ref_window_ms);
    traced_ms.push_back(traced_window_ms);
    const WindowRecord r = Score(in, out, spec.anomaly);
    if (r.final_suspects != expected.final_suspects ||
        r.final_anomalies != expected.final_anomalies || r.probes != expected.probes) {
      ++mismatched_windows;
    }
    if (spec.history) {
      live[static_cast<uint64_t>(spec.warmup_windows) + i] = TimelineSuspects(out);
    }
    traced_records.push_back(r);
  }
  ref.reset();
  if (!live_log.empty()) {
    std::filesystem::remove_all(live_log);
  }
  const int windows = static_cast<int>(traced_ms.size());
  result.attempted += windows;
  result.failed += static_cast<int64_t>(mismatched_windows);
  result.Check(mismatched_windows == 0,
               "traced run reproduces the end-to-end window-end suspect sets (" +
                   std::to_string(mismatched_windows) + " of " + std::to_string(windows) +
                   " windows differ)");

  double replay_ms_per_window = 0.0;
  if (spec.history) {
    const int replay_name = rec.Name("history.replay");
    size_t mismatches = 0;
    size_t replayed_windows = 0;
    double replay_ms = 0.0;
    size_t boundaries = 0;
    {
      ScopedSpan span(rec, replay_name);
      boundaries = CheckReplay(traced_log, fabric.topo(), traced->probe_matrix(), options, live,
                               mismatches, replayed_windows, replay_ms);
    }
    replay_ms_per_window = replay_ms / static_cast<double>(std::max<size_t>(1, replayed_windows));
    result.attempted += static_cast<int64_t>(boundaries);
    result.failed += static_cast<int64_t>(mismatches);
    result.Check(mismatches == 0, "traced log replays equal to live at every boundary");
  }
  rec.set_enabled(false);
  tls_spans = nullptr;

  const std::map<std::string, SpanTotals> totals = Analyse(rec);
  auto self_ms = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.self_ns * 1e-6 / windows;
  };
  auto total_ms = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_ns * 1e-6 / windows;
  };
  auto p50_ms = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : Quantile(it->second.durations_ms, 0.5);
  };
  const TraceCounters& c = traced->counters();
  const double w = static_cast<double>(windows);
  int64_t probes = 0;
  size_t suspects = 0;
  size_t anomaly_links = 0;
  for (const WindowRecord& r : traced_records) {
    probes += r.probes;
    suspects += r.final_suspects.size();
    anomaly_links += r.anomaly_links;
  }
  const CollectorStats group =
      traced->collector_group() ? traced->collector_group()->stats() : CollectorStats{};
  const int64_t records = spec.report_plane
                              ? static_cast<int64_t>(group.observations_folded -
                                                     group_before.observations_folded)
                              : c.store_records - before.store_records;
  const double obs = static_cast<double>(c.observations_emitted - before.observations_emitted);
  const int64_t deltas = c.deltas - before.deltas;
  std::vector<double> repair(c.repair_ms.begin() + static_cast<long>(before.repair_ms.size()),
                             c.repair_ms.end());
  const uint64_t log_records =
      traced->history_log() ? traced->history_log()->records_appended() - log_records_before : 0;
  const uint64_t log_bytes =
      traced->history_log() ? traced->history_log()->bytes_appended() - log_bytes_before : 0;

  result.Add("pmc.build_s", pmc_build_s, "s");
  result.Add("pmc.repair_ms.p50", Quantile(repair, 0.5), "ms");
  result.Add("pmc.touched_components",
             deltas == 0 ? 0.0
                         : static_cast<double>(c.touched_components - before.touched_components) /
                               static_cast<double>(deltas),
             "count/delta");
  result.Add("detector.controller.diff_entries",
             deltas == 0 ? 0.0
                         : static_cast<double>(c.diff_entries - before.diff_entries) /
                               static_cast<double>(deltas),
             "count/delta");
  result.Add("sim.probe_ms", self_ms("sim.probe"), "ms/window");
  result.Add("sim.probes", static_cast<double>(probes) / w, "count/window");
  result.Add("detector.store.totals_ms", self_ms("detector.store.totals"), "ms/window");
  result.Add("detector.store.records", static_cast<double>(records) / w, "count/window");
  const double capacity = c.pool_capacity_ns - before.pool_capacity_ns;
  result.Add("detector.probe_busy_ratio",
             capacity <= 0.0 ? 0.0 : (c.pool_busy_ns - before.pool_busy_ns) / capacity, "ratio");
  result.Add("common.pool_wait_ms", (c.pool_wait_ns - before.pool_wait_ns) * 1e-6 / w,
             "ms/window");
  result.Add("detector.advance_ms", self_ms("detector.advance"), "ms/window");
  result.Add("localize.pll_ms.p50", p50_ms("localize.pll"), "ms");
  result.Add("localize.suspects", static_cast<double>(suspects) / w, "count/window");
  result.Add("report.encode_ms", self_ms("report.encode"), "ms/window");
  result.Add("report.frames",
             static_cast<double>(c.frames_emitted - before.frames_emitted) / w, "count/window");
  result.Add("report.bytes_per_obs",
             obs <= 0.0 ? 0.0 : static_cast<double>(c.bytes_emitted - before.bytes_emitted) / obs,
             "B/obs");
  result.Add("net.send_ms", total_ms("net.send"), "ms/window");
  result.Add("net.recv_ms", total_ms("net.recv"), "ms/window");
  result.Add("net.frames", static_cast<double>(c.frames_received - before.frames_received) / w,
             "count/window");
  result.Add("report.decode_fold_ms", self_ms("report.decode_fold"), "ms/window");
  result.Add("report.frames_folded",
             static_cast<double>(group.frames_folded - group_before.frames_folded) / w,
             "count/window");
  result.Add("report.duplicates_dropped",
             static_cast<double>(group.duplicates_dropped - group_before.duplicates_dropped),
             "count");
  result.Add("anomaly.observe_ms", self_ms("anomaly.observe"), "ms/window");
  result.Add("anomaly.flagged_links", static_cast<double>(anomaly_links) / w, "count/window");
  result.Add("history.seal_ms", self_ms("history.seal"), "ms/window");
  result.Add("history.append_ms", self_ms("history.append"), "ms/window");
  result.Add("history.bytes_per_window",
             log_records == 0 ? 0.0 : static_cast<double>(log_bytes) / log_records, "B/window");
  result.Add("history.replay_ms_per_window", replay_ms_per_window, "ms/window");
  result.Add("trace.window_ms.p50", Quantile(traced_ms, 0.5), "ms");
  result.Add("trace.overhead_ms", Quantile(traced_ms, 0.5) - Quantile(ref_ms, 0.5), "ms");
  result.Add("trace.unattributed_ms", self_ms("window"), "ms/window");

  const std::string dump = base + "-trace.json";
  result.Check(WriteSpanDump(dump, spec, ctx, windows, rec, totals, result),
               "span dump written to " + dump);
  std::printf("%s: %d traced windows, span dump %s\n", spec.name.c_str(), windows, dump.c_str());
  if (!traced_log.empty()) {
    std::filesystem::remove_all(traced_log);
  }
  return result;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  detector::Flags flags;
  flags.Describe("workload", "steady-k32 | ingest-k16 | churn-k16 | all (default all)");
  flags.Describe("seed", "workload seed (default 1)");
  flags.Describe("seconds", "timed seconds per workload (default 10)");
  flags.Describe("trace", "0 = end-to-end metrics, 1 = traced per-layer metrics (default 0)");
  flags.Describe("k", "override every workload's fat-tree arity (self-test: 4)");
  flags.Describe("out-dir", "directory for the window logs and span dumps (default .)");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }
  if (flags.Has("help")) {
    std::printf("%s", flags.HelpText(argv[0]).c_str());
    return 0;
  }
  RunContext ctx;
  ctx.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  ctx.seconds = flags.GetDouble("seconds", 10.0);
  // Two pool threads: every segment ends in a pool barrier, and on a small shared host a
  // barrier across all cores stalls whenever the host preempts any one of them.
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  ctx.threads = std::min<unsigned>(2, nproc);
  ctx.out_dir = flags.GetString("out-dir", ".");
  std::filesystem::create_directories(ctx.out_dir);
  const bool trace = flags.GetInt("trace", 0) != 0;
  const std::string which = flags.GetString("workload", "all");

  std::vector<WorkloadSpec> specs;
  for (WorkloadSpec spec : Workloads()) {
    if (which == "all" || which == spec.name) {
      if (flags.Has("k")) {
        spec.k = static_cast<int>(flags.GetInt("k", spec.k));
        if (spec.k < 8) {
          // A k=4 fat-tree has 32 monitored links: three simultaneous failures are often not
          // identifiable by a beta=1 matrix, so the accuracy floors drop.
          spec.min_recall = std::min(spec.min_recall, 0.8);
          spec.min_precision = std::min(spec.min_precision, 0.8);
        }
      }
      specs.push_back(spec);
    }
  }
  if (specs.empty()) {
    std::fprintf(stderr, "unknown workload '%s'\n", which.c_str());
    return 1;
  }

  // One workload: metrics by their own names. All workloads: prefixed "<workload>/".
  Result total;
  for (const WorkloadSpec& spec : specs) {
    const Result r = trace ? RunTraced(spec, ctx) : RunEndToEnd(spec, ctx);
    PrintMetrics(spec.name, r);
    total.correct = total.correct && r.correct;
    total.attempted += r.attempted;
    total.failed += r.failed;
    for (const Metric& m : r.metrics) {
      total.metrics.push_back(
          Metric{specs.size() == 1 ? m.name : spec.name + "/" + m.name, m.value, m.unit});
    }
  }
  std::string line = "{\"correct\": ";
  line += total.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(std::max<int64_t>(1, total.attempted));
  line += ", \"failed\": " + std::to_string(total.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < total.metrics.size(); ++i) {
    const Metric& m = total.metrics[i];
    line += (i == 0 ? "" : ", ") + JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return total.correct ? 0 : 3;
}
