// Continuous-diagnosis benchmark: how fast does deTector *see* a gray failure, and what does
// each mid-window diagnosis cost? The batch pipeline diagnoses once per 30 s window, so its
// time-to-first-correct-localization is the window length by construction. RunWindowStreaming
// diagnoses every few probe segments; this bench prices that cadence — median
// time-to-first-correct-localization, detection rate, and the PLL cost of the extra
// mid-window diagnoses — against the batch baseline on the same probing.
//
// Modes (--mode):
//   incremental  (default) mid-window diagnoses re-score only the probe-matrix components
//                whose observations changed since the last boundary. Every window seals into
//                an in-memory sink; the sealed deltas rebuild the totals each boundary
//                localized over, and every timeline entry must equal one-shot PLL
//                (LocalizeView) over them — the incremental-vs-full bit-exactness gate (exit 2
//                on divergence). The table reports the one-shot cost alongside.
//   sliding      mid-window diagnoses localize over the trailing --sliding-window segment
//                deltas instead of the whole accumulated window.
//
// Bit-exactness gate (always enforced): for every trial and cadence, the streaming window's
// final localization must equal the batch window's on the same seed and slicing — the running
// totals may not drift from the rebuilt-snapshot semantics. Exits 2 on divergence.
//
// --speedup-gate: measures one-dirty-component incremental vs full diagnosis on a structured
// fat-tree(--gate-k, default 48) matrix — the north-star scale — and enforces >= 5x (exit 2)
// unless the host needed more than --gate-build-budget seconds to build and warm the matrix,
// in which case the gate is printed and skipped.
//
// Flags: --k=16            fat-tree arity
//        --trials=10       failure scenarios per cadence
//        --pps=200         probe packets per second per pinger
//        --segments=10     probe slices per window (diagnosis can only happen on a boundary)
//        --cadences=1,5    comma-separated diagnosis cadences, in segments
//        --mode=incremental|sliding
//        --sliding-window=4 trailing width for --mode=sliding, in segments
//        --alpha, --beta   PMC configuration (default 1/1)
//        --seed
//        --speedup-gate [--gate-k=48] [--gate-trials=20] [--gate-build-budget=180]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/detector/system.h"
#include "src/history/window_sink.h"
#include "src/pmc/decomposition.h"
#include "src/pmc/structured_fattree.h"
#include "src/routing/fattree_routing.h"
#include "src/topo/fattree.h"

namespace {

using namespace detector;

// Keeps the last sealed window: its per-boundary deltas sum to the totals each of the
// window's diagnoses localized over.
class LastWindowSink : public WindowSink {
 public:
  void OnWindowSealed(const SealedWindow& window) override { last_ = window; }
  const SealedWindow& last() const { return last_; }

 private:
  SealedWindow last_;
};

// Whether every timeline entry of `streamed` equals one-shot PLL over the totals its boundary
// localized over, rebuilt as prefix sums of `sealed`'s deltas. Adds each mid-window one-shot
// cost to `full_ms`.
bool TimelineMatchesOneShot(const DetectorSystem::StreamingWindowResult& streamed,
                            const SealedWindow& sealed, const ProbeMatrix& matrix,
                            const PllLocalizer& pll, OnlineStats& full_ms) {
  if (sealed.boundaries.size() != streamed.timeline.size()) {
    return false;
  }
  bool identical = true;
  Observations totals(matrix.NumPaths());
  for (size_t d = 0; d < sealed.boundaries.size(); ++d) {
    for (const SealedDelta& delta : sealed.boundaries[d].deltas) {
      totals[static_cast<size_t>(delta.slot)].sent += delta.sent;
      totals[static_cast<size_t>(delta.slot)].lost += delta.lost;
    }
    const LocalizeResult full = pll.LocalizeView(matrix, totals);
    identical &= full.links == streamed.timeline[d].localization.links;
    if (d + 1 < sealed.boundaries.size()) {
      full_ms.Add(full.seconds * 1e3);
    }
  }
  return identical;
}

// One-dirty-component microbench at --gate-k: every slot carries clean totals, one path turns
// lossy per trial, and each boundary diagnoses both ways: one-shot PLL over the running
// totals, then the incremental diagnosis. Returns false on gate failure.
bool RunSpeedupGate(const Flags& flags, uint64_t seed) {
  const int gate_k = static_cast<int>(flags.GetInt("gate-k", 48));
  const int gate_trials = std::max(3, static_cast<int>(flags.GetInt("gate-trials", 20)));
  const double build_budget = flags.GetDouble("gate-build-budget", 180.0);

  std::printf("\n== speedup gate: single dirty component at structured fat-tree(%d) ==\n",
              gate_k);
  WallTimer build_timer;
  const FatTree ft(gate_k);
  const ProbeMatrix matrix = StructuredFatTreeProbeMatrix(ft, /*alpha=*/1, /*beta=*/2);
  const Watchdog watchdog(ft.topology());
  Diagnoser diagnoser;
  const PllLocalizer pll;

  // Seed every slot with clean observations from one synthetic pinger, then warm the
  // incremental state (decomposes the matrix, scores everything once).
  const size_t num_paths = matrix.NumPaths();
  PingerWindowResult clean;
  clean.pinger = ft.Server(0, 0, 0);
  clean.reports.reserve(num_paths);
  for (size_t p = 0; p < num_paths; ++p) {
    clean.reports.push_back(
        PathReport{static_cast<PathId>(p), ft.Server(0, 0, 1), 1000, 0, {}});
  }
  diagnoser.Ingest(clean);
  (void)diagnoser.DiagnoseRunning(matrix, watchdog);
  const double build_seconds = build_timer.ElapsedSeconds();
  std::printf("build+warm: %.1f s, %zu paths, %d links, %zu components\n", build_seconds,
              num_paths, matrix.NumLinks(),
              DecomposePathLinkGraph(matrix.paths(), matrix.links()).components.size());

  OnlineStats full_ms;
  OnlineStats incremental_ms;
  Rng rng(seed);
  bool identical = true;
  for (int t = 0; t < gate_trials; ++t) {
    PingerWindowResult lossy;
    lossy.pinger = clean.pinger;
    lossy.reports.push_back(PathReport{static_cast<PathId>(rng() % num_paths),
                                       ft.Server(0, 0, 1), 500, 400, {}});
    diagnoser.Ingest(lossy);
    // Full first: it reads the totals without consuming the dirty set the incremental
    // diagnosis needs.
    WallTimer full_timer;
    const LocalizeResult full =
        pll.LocalizeView(matrix, diagnoser.store().RunningTotals(num_paths, watchdog));
    full_ms.Add(full_timer.ElapsedSeconds() * 1e3);
    WallTimer inc_timer;
    const LocalizeResult incremental = diagnoser.DiagnoseRunning(matrix, watchdog);
    incremental_ms.Add(inc_timer.ElapsedSeconds() * 1e3);
    identical &= incremental.links == full.links;
  }
  const double speedup =
      incremental_ms.mean() > 0.0 ? full_ms.mean() / incremental_ms.mean() : 0.0;
  std::printf("per-boundary diagnosis: full %.3f ms, incremental %.3f ms => %.1fx speedup\n",
              full_ms.mean(), incremental_ms.mean(), speedup);
  if (!identical) {
    std::printf("FAIL: incremental diverged from full PLL in the speedup gate\n");
    return false;
  }
  if (build_seconds > build_budget) {
    std::printf("speedup gate SKIPPED: build+warm took %.1f s (> %.0f s budget); the >= 5x "
                "gate only binds on hosts that can build fat-tree(%d) in time\n",
                build_seconds, build_budget, gate_k);
    return true;
  }
  const bool pass = speedup >= 5.0;
  std::printf("speedup gate %s: %.1fx %s 5x\n", pass ? "PASS" : "FAIL", speedup,
              pass ? ">=" : "<");
  return pass;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.Describe("k", "fat-tree arity (default 16)");
  flags.Describe("trials", "failure scenarios per cadence (default 10)");
  flags.Describe("pps", "probe packets per second per pinger (default 200)");
  flags.Describe("segments", "probe slices per window (default 10)");
  flags.Describe("cadences", "comma-separated diagnosis cadences in segments (default 1,5)");
  flags.Describe("mode", "mid-window diagnosis mode: incremental|sliding (default "
                 "incremental; incremental also gates bit-exactness vs full)");
  flags.Describe("sliding-window", "trailing window for --mode=sliding, in segments (default 4)");
  flags.Describe("alpha", "coverage target (default 1)");
  flags.Describe("beta", "identifiability target (default 1)");
  flags.Describe("seed", "rng seed (default 1)");
  flags.Describe("speedup-gate", "run the fat-tree(--gate-k) single-dirty-component gate");
  flags.Describe("gate-k", "arity for --speedup-gate (default 48)");
  flags.Describe("gate-trials", "boundaries measured by --speedup-gate (default 20)");
  flags.Describe("gate-build-budget",
                 "seconds the gate host may spend building before the 5x check is skipped");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }
  if (flags.Has("help")) {
    std::printf("%s", flags.HelpText(argv[0]).c_str());
    return 0;
  }
  const int k = static_cast<int>(flags.GetInt("k", 16));
  const int trials = std::max(1, static_cast<int>(flags.GetInt("trials", 10)));
  const double pps = static_cast<double>(flags.GetInt("pps", 200));
  const int segments = std::max(1, static_cast<int>(flags.GetInt("segments", 10)));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const std::string mode = flags.GetString("mode", "incremental");
  if (mode != "incremental" && mode != "sliding") {
    std::fprintf(stderr, "--mode must be incremental or sliding\n");
    return 1;
  }
  std::vector<int> cadences;
  for (const std::string& token : bench::SplitList(flags.GetString("cadences", "1,5"))) {
    const int c = static_cast<int>(std::strtol(token.c_str(), nullptr, 10));
    if (c >= 1 && c <= segments) {
      cadences.push_back(c);
    }
  }
  if (cadences.empty()) {
    std::fprintf(stderr, "--cadences must name at least one value in [1, --segments]\n");
    return 1;
  }

  bench::PrintHeader(
      "Continuous diagnosis (" + mode +
          "): time-to-first-correct-localization vs cadence, Fattree(" + std::to_string(k) +
          ")",
      "RunWindowStreaming diagnoses every N probe segments; batch diagnoses once at window\n"
      "end (latency = the 30 s window by construction). Gate: each streaming final must be\n"
      "bit-identical to its batch window" +
          std::string(mode == "incremental"
                          ? ", and every incremental mid-window diagnosis must be\n"
                            "bit-identical to full PLL on the same totals."
                          : "."));

  const FatTree ft(k);
  const FatTreeRouting routing(ft);
  DetectorSystemOptions options;
  options.pmc.alpha = static_cast<int>(flags.GetInt("alpha", 1));
  options.pmc.beta = static_cast<int>(flags.GetInt("beta", 1));
  options.controller.packets_per_second = pps;
  options.segments_per_window = segments;
  options.sliding_window_segments =
      std::max(1, static_cast<int>(flags.GetInt("sliding-window", 4)));
  if (mode == "sliding") {
    options.streaming_view = StreamingViewMode::kSliding;
  }
  // One system per diagnosis schedule. The batch baseline (same slicing, one diagnosis at
  // window end) builds the matrix; every other schedule reuses it.
  auto schedule = [&](int cadence) {
    DetectorSystemOptions scheduled = options;
    scheduled.diagnose_every_segments = cadence;
    return scheduled;
  };
  WallTimer build_timer;
  DetectorSystem batch(routing, schedule(segments));
  const double window = options.window_seconds;
  const double segment_seconds = window / segments;
  std::printf("build: %.2f s, %zu probe paths, %zu pinglists, %d segments of %.1f s\n\n",
              build_timer.ElapsedSeconds(), batch.probe_matrix().NumPaths(),
              batch.pinglists().size(), segments, segment_seconds);

  // One scenario per trial, fixed across every cadence (and the batch baseline).
  FailureModel model(ft.topology(), FailureModelOptions{});
  Rng scenario_rng(seed);
  std::vector<FailureScenario> scenarios;
  for (int t = 0; t < trials; ++t) {
    scenarios.push_back(model.SampleLinkFailures(1, scenario_rng));
  }

  std::vector<LocalizeResult> batch_finals;
  int batch_detected = 0;
  for (int t = 0; t < trials; ++t) {
    Rng rng(seed + 100 + static_cast<uint64_t>(t));
    const auto result =
        batch.RunWindowStreaming(scenarios[static_cast<size_t>(t)], {}, rng).window;
    const LinkId injected = scenarios[static_cast<size_t>(t)].failures[0].link;
    for (const SuspectLink& s : result.localization.links) {
      if (s.link == injected) {
        ++batch_detected;
        break;
      }
    }
    batch_finals.push_back(result.localization);
  }

  TablePrinter table({"mode", "period s", "detected", "median first-correct s", "mean pll ms",
                      "diagnoses/window"});
  table.AddRow({"batch", TablePrinter::Fmt(window, 1),
                TablePrinter::FmtInt(batch_detected) + "/" + TablePrinter::FmtInt(trials),
                TablePrinter::Fmt(window, 1), "-", "1"});

  bool all_identical = true;
  bool incremental_matches_full = true;
  OnlineStats full_reference_ms;  // incremental mode: the one-shot PLL cost on the same totals
  const PllLocalizer full_pll(options.pll);
  for (const int cadence : cadences) {
    // Incremental mode's oracle input: every window's sealed boundary deltas.
    LastWindowSink sealed;
    DetectorSystem system(ft.topology(), batch.probe_matrix(), schedule(cadence));
    if (mode == "incremental") {
      system.set_history_sink(&sealed);
    }
    std::vector<double> latencies;
    int detected = 0;
    OnlineStats pll_ms;
    double diagnoses = 0.0;
    for (int t = 0; t < trials; ++t) {
      Rng rng(seed + 100 + static_cast<uint64_t>(t));  // same probing as the batch run
      const auto streamed =
          system.RunWindowStreaming(scenarios[static_cast<size_t>(t)], {}, rng);
      if (streamed.window.localization.links != batch_finals[static_cast<size_t>(t)].links) {
        all_identical = false;
      }
      if (mode == "incremental") {
        incremental_matches_full &= TimelineMatchesOneShot(
            streamed, sealed.last(), system.probe_matrix(), full_pll, full_reference_ms);
      }
      const LinkId injected = scenarios[static_cast<size_t>(t)].failures[0].link;
      const double first = streamed.FirstDetectionSeconds(injected);
      if (first > 0.0) {
        ++detected;
        latencies.push_back(first);
      }
      // Marginal cost only: the timeline's last entry is the window-end diagnosis, which the
      // batch baseline pays too.
      for (size_t d = 0; d + 1 < streamed.timeline.size(); ++d) {
        pll_ms.Add(streamed.timeline[d].localization.seconds * 1e3);
      }
      diagnoses += static_cast<double>(streamed.timeline.size());
    }
    const double median =
        latencies.empty() ? 0.0 : PercentileInPlace(latencies, 50.0);
    table.AddRow({mode + "/" + TablePrinter::FmtInt(cadence),
                  TablePrinter::Fmt(cadence * segment_seconds, 1),
                  TablePrinter::FmtInt(detected) + "/" + TablePrinter::FmtInt(trials),
                  latencies.empty() ? "-" : TablePrinter::Fmt(median, 1),
                  pll_ms.count() == 0 ? "-" : TablePrinter::Fmt(pll_ms.mean(), 3),
                  TablePrinter::Fmt(diagnoses / trials, 1)});
  }
  table.Print();
  if (mode == "incremental" && full_reference_ms.count() > 0) {
    std::printf("\nfull-PLL reference on the same boundaries: %.3f ms/diagnosis\n",
                full_reference_ms.mean());
  }

  bool ok = true;
  if (!all_identical) {
    std::printf("\nFAIL: a streaming final localization diverged from its batch window\n");
    ok = false;
  } else {
    std::printf("\nbit-exactness PASS: every streaming final matched its batch window\n");
  }
  if (mode == "incremental") {
    if (!incremental_matches_full) {
      std::printf("FAIL: an incremental diagnosis diverged from full PLL on its totals\n");
      ok = false;
    } else {
      std::printf("incremental-vs-full PASS: every diagnosis matched full PLL on its totals\n");
    }
  }
  if (flags.GetBool("speedup-gate", false)) {
    ok &= RunSpeedupGate(flags, seed);
  }
  return ok ? 0 : 2;
}
