// Gray-failure accuracy sweep (PR 10): the anomaly plane's headline experiment. Each seed
// picks one monitored link and injects a pure-latency gray failure on it — every packet
// delivered, every packet late (GrayLatencyScenario, DropProbability 0) — after a couple of
// clean warmup windows that let the EWMA baselines learn "normal". Gates, all enforced:
//
//  - gray-localized: the anomaly plane names the gray link (with the latency signal bit set)
//    in every seeded run — a failure class the loss pipeline provably cannot see;
//  - loss-only-missed: a loss-only run (anomaly off) of the same scenario never names the
//    link, and the loss localization inside the anomaly runs stays silent on it too;
//  - clean-false-suspects: across every clean warmup window at 1/2/8 probe threads, zero
//    anomaly alarms on any link — the adaptive baselines do not hallucinate;
//  - thread-bit-identity / report-bit-identity: the window-end merged RTT sketches are
//    bit-identical at 1, 2 and 8 threads and between direct and report-plane (wire codec)
//    modes — the sketch fold is order-independent, like the loss counters.
//
// Flags: --k=4 fat-tree arity; --seeds=7,23,42; --threads=1,2,8; --warm-windows=2;
//        --gray-windows=2; --delay-us=2500 one-way inflation; --segments=8; --pps=50.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/common/table.h"
#include "src/detector/system.h"
#include "src/routing/fattree_routing.h"
#include "src/sim/anomaly_scenarios.h"
#include "src/topo/fattree.h"

namespace detector {
namespace {

struct RunOutcome {
  size_t clean_alarms = 0;       // anomaly alarms raised during clean warmup windows
  bool gray_named = false;       // anomaly plane named the gray link during gray windows
  bool gray_latency_bit = false; // ...with the latency signal set
  bool loss_named_gray = false;  // the loss localization named it (must stay false)
  std::vector<RttSketch> final_rtt;  // merged sketches at the last gray window's close
};

struct RunConfig {
  int k = 4;
  size_t threads = 1;
  bool report_plane = false;
  bool anomaly = true;
  int warm_windows = 2;
  int gray_windows = 2;
  double delay_us = 2500.0;
  int segments = 8;
  double pps = 50.0;
};

RunOutcome RunSequence(const FatTreeRouting& routing, LinkId gray, uint64_t seed,
                       const RunConfig& config) {
  DetectorSystemOptions options;
  options.controller.packets_per_second = config.pps;
  options.segments_per_window = config.segments;
  options.diagnose_every_segments = 1;
  options.probe_threads = config.threads;
  options.report_plane = config.report_plane;
  options.anomaly = config.anomaly;
  DetectorSystem system(routing, options);

  Rng rng(seed);
  RunOutcome out;
  const FailureScenario clean;
  for (int w = 0; w < config.warm_windows; ++w) {
    const auto result = system.RunWindowStreaming(clean, {}, rng);
    for (const auto& diagnosis : result.timeline) {
      out.clean_alarms += diagnosis.anomalies.size();
    }
  }
  const FailureScenario scenario = GrayLatencyScenario(gray, config.delay_us);
  for (int w = 0; w < config.gray_windows; ++w) {
    const auto result = system.RunWindowStreaming(scenario, {}, rng);
    for (const auto& diagnosis : result.timeline) {
      for (const LinkAnomaly& anomaly : diagnosis.anomalies) {
        if (anomaly.link == gray) {
          out.gray_named = true;
          if ((anomaly.signal & kAnomalySignalLatency) != 0) {
            out.gray_latency_bit = true;
          }
        }
      }
    }
    for (const SuspectLink& suspect : result.window.localization.links) {
      if (suspect.link == gray) {
        out.loss_named_gray = true;
      }
    }
  }
  const std::span<const RttSketch> rtt = system.last_window_rtt_totals();
  out.final_rtt.assign(rtt.begin(), rtt.end());
  return out;
}

bool SketchesIdentical(const std::vector<RttSketch>& a, const std::vector<RttSketch>& b) {
  return a == b;
}

std::vector<uint64_t> ParseU64List(const std::string& spec) {
  std::vector<uint64_t> out;
  for (const std::string& token : bench::SplitList(spec)) {
    out.push_back(std::strtoull(token.c_str(), nullptr, 10));
  }
  return out;
}

}  // namespace
}  // namespace detector

int main(int argc, char** argv) {
  using namespace detector;
  Flags flags;
  flags.Describe("k", "fat-tree arity (default 4)");
  flags.Describe("seeds", "comma-separated rng seeds, one gray link each (default 7,23,42)");
  flags.Describe("threads", "comma-separated probe thread counts (default 1,2,8)");
  flags.Describe("warm-windows", "clean windows before the failure (default 2)");
  flags.Describe("gray-windows", "windows under the gray failure (default 2)");
  flags.Describe("delay-us", "one-way latency inflation on the gray link (default 2500)");
  flags.Describe("segments", "probe slices per window / diagnosis boundaries (default 8)");
  flags.Describe("pps", "probe packets per second per pinger (default 50)");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }
  if (flags.Has("help")) {
    std::printf("%s", flags.HelpText(argv[0]).c_str());
    return 0;
  }

  RunConfig base;
  base.k = static_cast<int>(flags.GetInt("k", 4));
  base.warm_windows = std::max(1, static_cast<int>(flags.GetInt("warm-windows", 2)));
  base.gray_windows = std::max(1, static_cast<int>(flags.GetInt("gray-windows", 2)));
  base.delay_us = flags.GetDouble("delay-us", 2500.0);
  base.segments = std::max(2, static_cast<int>(flags.GetInt("segments", 8)));
  base.pps = static_cast<double>(flags.GetInt("pps", 50));
  const std::vector<uint64_t> seeds = ParseU64List(flags.GetString("seeds", "7,23,42"));
  const std::vector<uint64_t> threads = ParseU64List(flags.GetString("threads", "1,2,8"));

  bench::PrintHeader(
      "Gray-failure localization — pure-latency failures vs the anomaly plane, Fattree(" +
          std::to_string(base.k) + ")",
      "Each seed: clean warmup windows, then a delay-but-deliver failure on one monitored\n"
      "link (zero loss). The loss pipeline cannot see it; the RTT/EWMA anomaly plane must\n"
      "name it, with zero false alarms on clean links and bit-identical sketches at any\n"
      "thread count and across direct vs report-plane modes.");

  const FatTree ft(base.k);
  const FatTreeRouting routing(ft);

  size_t gray_localized = 0;
  size_t latency_bit = 0;
  size_t loss_only_missed = 0;
  size_t clean_alarms = 0;
  size_t thread_identity_ok = 0;
  size_t report_identity_ok = 0;
  TablePrinter table({"seed", "gray link", "anomaly", "signal", "loss-only", "clean alarms",
                      "threads ==", "report =="});
  for (const uint64_t seed : seeds) {
    Rng pick(HashCombine(seed, 0x6772617921ULL));
    const LinkId gray = SampleMonitoredLink(ft.topology(), pick);

    // Direct-mode runs across the thread sweep; threads[0] is the identity reference.
    std::vector<RunOutcome> by_thread;
    for (const uint64_t t : threads) {
      RunConfig config = base;
      config.threads = static_cast<size_t>(t);
      by_thread.push_back(RunSequence(routing, gray, seed, config));
    }
    const RunOutcome& reference = by_thread.front();
    // A vacuously-empty reference would make every identity compare pass; the anomaly runs
    // must have produced merged sketches with real samples.
    bool threads_identical = !reference.final_rtt.empty();
    int64_t reference_samples = 0;
    for (const RttSketch& sketch : reference.final_rtt) {
      reference_samples += sketch.total();
    }
    threads_identical = threads_identical && reference_samples > 0;
    for (const RunOutcome& outcome : by_thread) {
      clean_alarms += outcome.clean_alarms;
      threads_identical =
          threads_identical && SketchesIdentical(outcome.final_rtt, reference.final_rtt);
    }

    // Report-plane run (wire codec ext records carry the sketches) vs direct.
    RunConfig report_config = base;
    report_config.report_plane = true;
    const RunOutcome report = RunSequence(routing, gray, seed, report_config);
    clean_alarms += report.clean_alarms;
    const bool report_identical = SketchesIdentical(report.final_rtt, reference.final_rtt);

    // Loss-only control: anomaly off, same scenario — its own (equally deterministic) RNG
    // trajectory; the gray link must never surface.
    RunConfig loss_only = base;
    loss_only.anomaly = false;
    const RunOutcome control = RunSequence(routing, gray, seed, loss_only);
    const bool missed = !control.loss_named_gray && !reference.loss_named_gray &&
                        !report.loss_named_gray;

    gray_localized += (reference.gray_named && report.gray_named) ? 1 : 0;
    latency_bit += (reference.gray_latency_bit && report.gray_latency_bit) ? 1 : 0;
    loss_only_missed += missed ? 1 : 0;
    thread_identity_ok += threads_identical ? 1 : 0;
    report_identity_ok += report_identical ? 1 : 0;
    table.AddRow({TablePrinter::FmtInt(static_cast<int64_t>(seed)),
                  TablePrinter::FmtInt(gray), reference.gray_named ? "named" : "MISSED",
                  reference.gray_latency_bit ? "latency" : "none",
                  missed ? "silent" : "NAMED IT",
                  TablePrinter::FmtInt(static_cast<int64_t>(reference.clean_alarms)),
                  threads_identical ? "yes" : "NO", report_identical ? "yes" : "NO"});
  }
  table.Print();

  const bool all_pass = gray_localized == seeds.size() && latency_bit == seeds.size() &&
                        loss_only_missed == seeds.size() && clean_alarms == 0 &&
                        thread_identity_ok == seeds.size() &&
                        report_identity_ok == seeds.size();
  std::printf("\n%s\n", all_pass ? "all gates passed" : "GATE FAILURE");
  return all_pass ? 0 : 2;
}
