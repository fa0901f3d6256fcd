// Continuous-monitoring example: runs the full deTector pipeline (controller -> pingers ->
// report plane -> diagnoser) over a sequence of 30 s windows while the network's failure
// state evolves — a healthy start, a gray failure appearing (printing when it is first
// *seen*, seconds into its window), an appear-and-clear loss episode, a second concurrent
// failure, a pinger dying (watchdog + cycle recompute), recovery, and finally a stretch of
// continuous topology churn: a ChurnGenerator trace sliced across windows drives
// ApplyTopologyDelta mid-window through the incremental repair path, and a RecomputeCycle
// closes the run like the 10-minute re-plan would. Prints a timeline of alarms and churn
// activity.
//
// One system, configured once from the flags, runs every window: probes run in --segments
// slices, PLL runs every --diagnose-every slices over the trailing --sliding-window segments
// (the window-end diagnosis stays cumulative), and the counters travel as wire frames through
// a 2-collector report-plane fabric, which is bit-identical to direct store writes. The demo
// checks its own story and exits 1 unless the blackhole is named before its window ends, the
// sliding view names the loss episode and no longer names it at the last mid-window boundary,
// and, with --anomaly, the latency-only link is flagged. A check the flags leave no room for
// (say --diagnose-every >= --segments, so no mid-window diagnosis) prints SKIP instead.
//
// --history-dir=DIR seals every window into an append-only WindowLog there, and --mode=query
// answers forensic questions over a directory recorded at the same --k — retained range, top
// suspect links, loss episodes, per-rack rollups, and replay of the logged windows at an
// altered hit-ratio threshold, without re-running a single probe:
//
//   ./monitor_daemon --k=6 --history-dir=out/history
//   ./monitor_daemon --mode=query --k=6 --history-dir=out/history --replay-threshold=0.3
//
//   ./monitor_daemon [--mode=demo|query] [--k=6] [--windows-per-phase=2]
//                    [--churn-windows=4] [--churn-per-minute=4] [--segments=10]
//                    [--diagnose-every=2] [--sliding-window=2] [--seed=9]
//                    [--history-dir=DIR] [--history-segments=N] [--last-n=N]
//                    [--replay-threshold=X]
//
// `--anomaly` turns on the multi-signal anomaly plane: per-path RTT sampling into
// deterministic quantile sketches and adaptive EWMA baselines (loss rate, RTT p50/p99) at
// every diagnosis boundary, so a delay-but-deliver gray failure — invisible to the loss
// pipeline — is localized through the same PLL machinery; the demo adds a pure-latency phase
// to show it, windows seal the anomaly timeline into the history log, and `--mode=query`
// prints per-link anomaly timelines next to the loss episodes. Tune with `--ewma-alpha`,
// `--rtt-bins`, and `--anomaly-horizon`.
//
// The deployed shape — agent and partitioned collector processes over UDP — is
// examples/fleet_runner.cc.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/detector/system.h"
#include "src/history/query.h"
#include "src/history/window_log.h"
#include "src/localize/metrics.h"
#include "src/routing/fattree_routing.h"
#include "src/sim/anomaly_scenarios.h"
#include "src/sim/churn.h"

namespace {

void PrintAnomalies(const detector::Topology& topo,
                    const std::vector<detector::LinkAnomaly>& anomalies) {
  for (const auto& anomaly : anomalies) {
    std::printf("  anomaly[%s %s run=%d score=%.2f]", topo.LinkName(anomaly.link).c_str(),
                detector::AnomalySignalName(anomaly.signal), anomaly.sustained,
                anomaly.score);
  }
}

void PrintWindow(const detector::Topology& topo, int window,
                 const detector::DetectorSystem::WindowResult& result,
                 const std::string& phase) {
  std::printf("[t=%3ds] %-34s probes=%-6lld alarms=%zu", window * 30, phase.c_str(),
              static_cast<long long>(result.probes_sent), result.localization.links.size());
  if (result.churn_events_applied > 0) {
    std::printf("  churn=%zu", result.churn_events_applied);
  }
  for (const auto& s : result.localization.links) {
    std::printf("  %s(est=%.3f)", topo.LinkName(s.link).c_str(), s.estimated_loss_rate);
  }
  for (const auto& alarm : result.server_link_alarms) {
    std::printf("  server-link[%s->%s]", topo.node(alarm.pinger).name.c_str(),
                topo.node(alarm.target).name.c_str());
  }
  PrintAnomalies(topo, result.anomalies);
  std::printf("\n");
}

// The probe-matrix shape the demo and the fleet_runner collectors record under; the query
// plane rebuilds it to replay their logs.
detector::DetectorSystemOptions MatrixOptions() {
  detector::DetectorSystemOptions options;
  options.pmc.alpha = 2;
  options.pmc.beta = 1;
  return options;
}

// --mode=query: the forensic plane. Loads a WindowLog directory recorded by the demo or a
// fleet_runner collector at the same --k and answers on-demand questions over the retained
// range: top suspect links and their loss episodes, per-rack rollups, and — with
// --replay-threshold — a what-if replay of every logged window through the Diagnoser at the
// altered threshold, probe-free.
int RunQuery(const detector::Flags& flags) {
  using namespace detector;
  const std::string dir = flags.GetString("history-dir", "");
  if (dir.empty()) {
    std::fprintf(stderr, "--mode=query needs --history-dir=DIR\n");
    return 1;
  }
  const int k = static_cast<int>(flags.GetInt("k", 6));
  const size_t last_n = static_cast<size_t>(flags.GetInt("last-n", 0));

  QueryEngine engine = QueryEngine::FromDir(dir);
  if (!engine.ok()) {
    std::fprintf(stderr, "cannot read %s: %s\n", dir.c_str(),
                 engine.read_result().error.c_str());
    return 1;
  }
  const WindowLogReadResult& read = engine.read_result();
  if (engine.num_windows() == 0) {
    std::printf("%s: no retained windows\n", dir.c_str());
    return 0;
  }
  std::printf("history %s: %zu windows retained [%llu, %llu], %zu segment file(s)\n", dir.c_str(),
              engine.num_windows(),
              static_cast<unsigned long long>(engine.window(0).window_index),
              static_cast<unsigned long long>(
                  engine.window(engine.num_windows() - 1).window_index),
              read.segments_read);
  if (!read.clean) {
    std::printf("  damaged tail tolerated: %llu record(s) rejected (%s), %llu byte(s) "
                "discarded\n",
                static_cast<unsigned long long>(read.records_rejected),
                WindowLogStatusName(read.first_reject),
                static_cast<unsigned long long>(read.bytes_discarded));
  }

  // Rebuild the probe matrix the recorder built (deterministic, no config exchange): the
  // replay runs on it, and every LinkId is named in the fat-tree at --k. The first retained
  // window must carry exactly its slot count: a log recorded at another k would print the
  // wrong link names, so say so instead of answering with garbage.
  const FatTree fattree(k);
  const Topology& topo = fattree.topology();
  const FatTreeRouting routing(fattree);
  const DetectorSystemOptions options = MatrixOptions();
  const DetectorSystem system(routing, options);
  if (engine.window(0).num_slots != system.probe_matrix().NumPaths()) {
    std::fprintf(stderr,
                 "log has %llu slots but fat-tree(%d) builds %zu probe paths — wrong --k?\n",
                 static_cast<unsigned long long>(engine.window(0).num_slots), k,
                 system.probe_matrix().NumPaths());
    return 1;
  }

  const auto top = engine.TopLinks(last_n);
  if (top.empty()) {
    std::printf("no suspect links in the %s\n",
                last_n == 0 ? "retained range" : "queried range");
  }
  for (size_t i = 0; i < top.size() && i < 8; ++i) {
    std::printf("suspect %s: %zu window(s), max est loss %.3f\n",
                topo.LinkName(top[i].link).c_str(), top[i].windows_suspected,
                top[i].max_estimated_loss_rate);
    for (const auto& episode : engine.LinkEpisodes(top[i].link, last_n)) {
      std::printf("  episode: windows [%llu, %llu] (%zu), max est loss %.3f\n",
                  static_cast<unsigned long long>(episode.first_window),
                  static_cast<unsigned long long>(episode.last_window), episode.windows,
                  episode.max_estimated_loss_rate);
    }
  }
  for (const auto& rack : engine.RackTimeline(topo, last_n)) {
    std::printf("rack %-12s %zu suspected window(s), %zu distinct link(s)\n",
                rack.rack.c_str(), rack.windows_suspected, rack.distinct_links);
  }

  // The anomaly plane's forensic view (PR 10): which links the sealed windows flagged, with
  // the per-link window timeline. Pre-anomaly (v1) logs simply have nothing to report.
  const auto anomalies = engine.TopAnomalies(last_n);
  if (anomalies.empty()) {
    std::printf("no anomaly alarms in the %s\n",
                last_n == 0 ? "retained range" : "queried range");
  }
  for (size_t i = 0; i < anomalies.size() && i < 8; ++i) {
    const auto& activity = anomalies[i];
    std::printf("anomaly %s: %zu window(s), signal %s, max score %.2f, longest run %d\n",
                topo.LinkName(activity.link).c_str(), activity.windows_flagged,
                AnomalySignalName(activity.signal), activity.max_score,
                activity.max_sustained);
    for (const auto& point : engine.LinkAnomalyTimeline(activity.link, last_n)) {
      if (!point.flagged) {
        continue;
      }
      std::printf("  window %llu: %s at %zu boundar%s, score %.2f, run %d\n",
                  static_cast<unsigned long long>(point.window_index),
                  AnomalySignalName(point.signal), point.boundaries_flagged,
                  point.boundaries_flagged == 1 ? "y" : "ies", point.max_score,
                  point.max_sustained);
    }
  }

  if (flags.Has("replay-threshold")) {
    const double threshold = flags.GetDouble("replay-threshold", 0.3);
    ReplayOptions replay_options;
    replay_options.pll = options.pll;
    replay_options.pll.hit_ratio_threshold = threshold;
    const auto replayed =
        engine.Replay(topo, system.probe_matrix(), replay_options,
                      engine.num_windows() - std::min(engine.num_windows(),
                                                      last_n == 0 ? engine.num_windows()
                                                                  : last_n));
    std::printf("replay at hit-ratio threshold %.2f over %zu window(s):\n", threshold,
                replayed.size());
    for (const auto& window : replayed) {
      if (window.boundaries.empty()) {
        continue;
      }
      const auto& final_links = window.boundaries.back().localization.links;
      std::printf("  window %llu: %zu suspect(s)",
                  static_cast<unsigned long long>(window.window_index), final_links.size());
      for (const auto& s : final_links) {
        std::printf("  %s(est=%.3f)", topo.LinkName(s.link).c_str(), s.estimated_loss_rate);
      }
      std::printf("\n");
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace detector;
  Flags flags;
  flags.Describe("mode", "demo (default, single process) or query (read a --history-dir)");
  flags.Describe("k", "fat-tree arity; query mode needs the k the log was recorded at "
                      "(default 6)");
  flags.Describe("windows-per-phase", "30 s windows per failure phase (default 2)");
  flags.Describe("churn-windows", "windows of continuous topology churn (default 4)");
  flags.Describe("churn-per-minute", "link churn events per minute in the churn phase");
  flags.Describe("segments", "probe slices per window (default 10)");
  flags.Describe("diagnose-every", "mid-window diagnosis cadence in segments (default 2)");
  flags.Describe("sliding-window",
                 "trailing window of the mid-window diagnoses, in segments (default 2)");
  flags.Describe("seed", "rng seed (default 9)");
  flags.Describe("history-dir",
                 "WindowLog directory: the demo seals windows into it, query mode reads it "
                 "(default off)");
  flags.Describe("history-segments",
                 "bounded retention: keep at most N window-log segment files (default 0 = "
                 "unbounded)");
  flags.Describe("last-n", "query mode: restrict queries to the newest N windows (default all)");
  flags.Describe("replay-threshold",
                 "query mode: replay the logged windows at this hit-ratio threshold");
  flags.Describe("anomaly",
                 "multi-signal anomaly plane: per-path RTT quantile sketches + adaptive EWMA "
                 "baselines localize delay-but-deliver gray failures (default off)");
  flags.Describe("ewma-alpha",
                 "anomaly baseline smoothing factor in (0, 1] (default 0.2; smaller = "
                 "slower-moving baselines)");
  flags.Describe("rtt-bins",
                 "RTT sketch bins, 4 sub-bins per octave of microseconds (default 80, "
                 "spanning ~2 s)");
  flags.Describe("anomaly-horizon",
                 "consecutive excursion boundaries before a path is flagged (default 2)");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }
  if (flags.Has("help")) {
    std::printf("%s", flags.HelpText(argv[0]).c_str());
    return 0;
  }
  const std::string mode = flags.GetString("mode", "demo");
  if (mode == "query") {
    return RunQuery(flags);
  }
  if (mode != "demo") {
    std::fprintf(stderr, "unknown --mode=%s (expected demo or query)\n", mode.c_str());
    return 1;
  }
  const int k = static_cast<int>(flags.GetInt("k", 6));
  const int per_phase = static_cast<int>(flags.GetInt("windows-per-phase", 2));
  const int churn_windows = static_cast<int>(flags.GetInt("churn-windows", 4));
  const double churn_per_minute = flags.GetDouble("churn-per-minute", 4.0);
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 9)));

  const FatTree fattree(k);
  const FatTreeRouting routing(fattree);
  DetectorSystemOptions options = MatrixOptions();
  options.segments_per_window = std::max(1, static_cast<int>(flags.GetInt("segments", 10)));
  options.diagnose_every_segments =
      std::max(1, static_cast<int>(flags.GetInt("diagnose-every", 2)));
  options.streaming_view = StreamingViewMode::kSliding;
  options.sliding_window_segments =
      std::max(1, static_cast<int>(flags.GetInt("sliding-window", 2)));
  options.report_plane = true;
  options.report_collectors = 2;
  options.history_dir = flags.GetString("history-dir", "");
  options.history_max_segments = static_cast<size_t>(flags.GetInt("history-segments", 0));
  options.anomaly = flags.GetBool("anomaly", false);
  options.anomaly_options.ewma_alpha =
      flags.GetDouble("ewma-alpha", options.anomaly_options.ewma_alpha);
  options.anomaly_options.horizon =
      static_cast<int>(flags.GetInt("anomaly-horizon", options.anomaly_options.horizon));
  options.rtt_bins = static_cast<int>(flags.GetInt("rtt-bins", options.rtt_bins));
  DetectorSystem system(routing, options);
  const Topology& topo = fattree.topology();
  std::printf("deTector daemon on Fattree(%d): %zu probe paths, %zu pingers\n", k,
              system.probe_matrix().NumPaths(), system.pinglists().size());
  std::printf("every window: %d probe slices, diagnosis every %d over the trailing %d, "
              "reports through %zu collectors\n",
              options.segments_per_window, options.diagnose_every_segments,
              options.sliding_window_segments, options.report_collectors);
  if (options.anomaly) {
    std::printf("anomaly plane: RTT sketches (%d bins), EWMA alpha %.2f, horizon %d "
                "boundaries\n",
                options.rtt_bins, options.anomaly_options.ewma_alpha,
                options.anomaly_options.horizon);
  }
  if (!options.history_dir.empty()) {
    std::printf("retention: sealing every window into %s\n", options.history_dir.c_str());
  }
  std::printf("\n");

  int window = 0;
  auto run_phase = [&](const std::string& name, const FailureScenario& scenario) {
    for (int w = 0; w < per_phase; ++w) {
      const auto result = system.RunWindowStreaming(scenario, {}, rng).window;
      PrintWindow(topo, window++, result, name);
    }
  };
  auto names = [](const LocalizeResult& localization, LinkId link) {
    return std::any_of(localization.links.begin(), localization.links.end(),
                       [&](const SuspectLink& s) { return s.link == link; });
  };

  // Phase 1: healthy network.
  run_phase("healthy", FailureScenario{});

  // Phase 2: a gray failure — packet blackhole on an agg-core link. Its first window prints
  // every mid-window diagnosis: the blackhole is seen seconds after it manifests instead of at
  // the window boundary.
  FailureScenario gray;
  {
    LinkFailure f;
    f.link = fattree.AggCoreLink(1, 0, 1);
    f.type = FailureType::kDeterministicPartial;
    f.match_fraction = 0.5;
    f.rule_seed = 1234;
    gray.failures.push_back(f);
  }
  const auto streamed = system.RunWindowStreaming(gray, {}, rng);
  for (const auto& d : streamed.timeline) {
    std::printf("[t=%3ds+%04.1fs] %-27s alarms=%zu", window * 30, d.time_seconds,
                "streaming diagnosis", d.localization.links.size());
    for (const auto& s : d.localization.links) {
      std::printf("  %s(est=%.3f)", topo.LinkName(s.link).c_str(), s.estimated_loss_rate);
    }
    PrintAnomalies(topo, d.anomalies);
    std::printf("\n");
  }
  const double first_seen = streamed.FirstDetectionSeconds(gray.failures[0].link);
  const bool blackhole_seen = first_seen > 0.0 && first_seen < options.window_seconds;
  if (first_seen > 0.0) {
    std::printf("--- blackhole first seen %.1f s into the window (batch reports at %.0f s) ---\n",
                first_seen, options.window_seconds);
  }
  PrintWindow(topo, window++, streamed.window, "blackhole (streaming)");

  // Phase 2b: an appear-and-clear full-loss episode inside one otherwise-healthy window. It
  // fills the last segment before the first mid-window diagnosis; the trailing view raises the
  // alarm while the episode is in view and drops it once the episode leaves, where whole-window
  // totals would keep alarming for the rest of the window after the failure cleared.
  const double segment_seconds = options.window_seconds / options.segments_per_window;
  FailureScenario episode_scenario;
  FailureEpisode episode;
  episode.failure.link = fattree.EdgeAggLink(2, 1, 0);
  episode.failure.type = FailureType::kFullLoss;
  episode.start_seconds = (options.diagnose_every_segments - 1) * segment_seconds;
  episode.end_seconds = options.diagnose_every_segments * segment_seconds;
  episode_scenario.episodes.push_back(episode);
  const auto sliding = system.RunWindowStreaming(episode_scenario, {}, rng);
  // The timeline's last entry is the window-end cumulative diagnosis; the trailing-view story
  // is in the mid-window entries.
  double last_seen = -1.0;
  for (size_t i = 0; i + 1 < sliding.timeline.size(); ++i) {
    if (names(sliding.timeline[i].localization, episode.failure.link)) {
      last_seen = sliding.timeline[i].time_seconds;
    }
  }
  const bool episode_cleared =
      last_seen > 0.0 &&
      !names(sliding.timeline[sliding.timeline.size() - 2].localization, episode.failure.link);
  std::printf("--- episode [%.0f s, %.0f s): sliding view first saw it at %.1f s and last "
              "named it at %.1f s (clear once it left the trailing window) ---\n",
              episode.start_seconds, episode.end_seconds,
              sliding.FirstDetectionSeconds(episode.failure.link), last_seen);
  PrintWindow(topo, window++, sliding.window, "loss episode (sliding view)");

  // Phase 2c (anomaly plane only): a true gray failure — every packet delivered, every packet
  // 2.5 ms late. The loss pipeline stays silent; the RTT baselines flag the paths and PLL
  // localizes the link from the pseudo-observations. A clean warmup window lets the EWMA
  // baselines learn "normal" first.
  bool latency_flagged = false;
  if (options.anomaly) {
    const LinkId latency_link = fattree.AggCoreLink(0, 1, 0);
    const FailureScenario latency_gray =
        GrayLatencyScenario(latency_link, /*added_delay_us=*/2500.0);
    const auto warm = system.RunWindowStreaming(FailureScenario{}, {}, rng);
    PrintWindow(topo, window++, warm.window, "anomaly warmup (clean)");
    const auto latency = system.RunWindowStreaming(latency_gray, {}, rng);
    for (const auto& d : latency.timeline) {
      if (d.anomalies.empty()) {
        continue;
      }
      std::printf("[t=%3ds+%04.1fs] %-27s loss-alarms=%zu", window * 30, d.time_seconds,
                  "latency-only gray failure", d.localization.links.size());
      PrintAnomalies(topo, d.anomalies);
      std::printf("\n");
      latency_flagged =
          latency_flagged ||
          std::any_of(d.anomalies.begin(), d.anomalies.end(),
                      [&](const LinkAnomaly& a) { return a.link == latency_link; });
    }
    PrintWindow(topo, window++, latency.window, "latency-only gray failure");
  }

  run_phase("blackhole on agg-core", gray);

  // Phase 3: a second, concurrent random-loss failure on an edge-agg link.
  FailureScenario two = gray;
  {
    LinkFailure f;
    f.link = fattree.EdgeAggLink(3, 1, 0);
    f.type = FailureType::kRandomPartial;
    f.loss_rate = 0.05;
    two.failures.push_back(f);
  }
  run_phase("blackhole + 5% random loss", two);

  // Phase 4: a pinger dies; the watchdog flags it and the next cycle re-plans around it.
  const NodeId dead = system.pinglists().front().pinger;
  system.watchdog().MarkDown(dead);
  system.RecomputeCycle();
  std::printf("--- watchdog: %s down; cycle recomputed (%zu pinglists) ---\n",
              topo.node(dead).name.c_str(), system.pinglists().size());
  run_phase("after pinger failure", two);

  // Phase 5: failures repaired.
  run_phase("repaired", FailureScenario{});

  // Phase 6: continuous topology churn. A long generator trace is sliced per window; every
  // slice's events apply mid-window via ApplyTopologyDelta (incremental matrix repair +
  // in-place pinglist updates), so probing keeps running while links flap and drain under it.
  ChurnOptions churn_options;
  churn_options.link_events_per_minute = churn_per_minute;
  churn_options.node_events_per_minute = churn_per_minute / 10.0;
  const ChurnGenerator generator(topo, churn_options);
  const double horizon = churn_windows * options.window_seconds;
  const auto trace = generator.Sample(horizon, rng);
  std::printf("--- churn: %zu events over %.0f s (%.1f link events/min) ---\n", trace.size(),
              horizon, churn_per_minute);
  size_t applied = 0;
  const int total_slices =
      trace.empty() ? churn_windows
                    : std::max(churn_windows,
                               static_cast<int>(trace.back().time_seconds /
                                                options.window_seconds) + 1);
  for (int w = 0; w < total_slices; ++w) {
    const auto slice = WindowSlice(trace, w * options.window_seconds,
                                   (w + 1) * options.window_seconds);
    const auto result = system.RunWindowStreaming(FailureScenario{}, slice, rng).window;
    applied += result.churn_events_applied;
    PrintWindow(topo, window++, result, "topology churn");
  }
  std::printf("--- churn done: %zu/%zu events applied, overlay dead links=%zu ---\n", applied,
              trace.size(), system.overlay().NumDeadLinks());

  // The 10-minute re-plan: rebuild over the live topology and rebalance what repair left
  // sticky.
  system.RecomputeCycle();
  std::printf("--- cycle recomputed: %zu pinglists, alpha %s ---\n",
              system.pinglists().size(),
              system.pmc_stats().alpha_satisfied ? "satisfied" : "NOT satisfied");
  run_phase("post-churn healthy", FailureScenario{});

  const CollectorStats report_stats = system.collector_group()->stats();
  std::printf("--- report plane (%zu collectors): %llu frames / %llu observations folded, "
              "%llu duplicates, %llu decode errors, %llu tampered, %llu stale-window, "
              "%llu misrouted, %llu stale pingers ---\n",
              options.report_collectors,
              static_cast<unsigned long long>(report_stats.frames_folded),
              static_cast<unsigned long long>(report_stats.observations_folded),
              static_cast<unsigned long long>(report_stats.duplicates_dropped),
              static_cast<unsigned long long>(report_stats.decode_errors),
              static_cast<unsigned long long>(report_stats.tampered_dropped),
              static_cast<unsigned long long>(report_stats.stale_window_dropped),
              static_cast<unsigned long long>(report_stats.wrong_partition_dropped),
              static_cast<unsigned long long>(report_stats.stale_pingers));

  // The story above, checked: a chapter that did not happen fails the run. A chapter the flags
  // leave no room for is skipped. Mid-window diagnoses run at the multiples of the cadence
  // below --segments: the blackhole needs one, the episode (segment cadence - 1) must have
  // left the trailing window by the last one, and the latency link needs --anomaly-horizon
  // consecutive boundaries inside its window (the mid-window ones plus the window end).
  const int cadence = options.diagnose_every_segments;
  const int last_boundary = (options.segments_per_window - 1) / cadence * cadence;
  bool ok = true;
  auto check = [&](bool room, bool held, const char* what) {
    std::printf("%s: %s\n", !room ? "SKIP" : held ? "PASS" : "FAIL", what);
    ok = ok && (!room || held);
  };
  check(last_boundary > 0, blackhole_seen, "the blackhole was named before its window ended");
  check(last_boundary >= cadence + options.sliding_window_segments, episode_cleared,
        "the sliding view named the episode and no longer named it at the last mid-window "
        "boundary");
  if (options.anomaly) {
    check(last_boundary / cadence + 1 >= options.anomaly_options.horizon, latency_flagged,
          "the anomaly plane flagged the latency-only link");
  }
  return ok ? 0 : 1;
}
