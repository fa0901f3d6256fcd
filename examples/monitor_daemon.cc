// Continuous-monitoring example: runs the full deTector pipeline (controller -> pingers ->
// diagnoser) over a sequence of 30 s windows while the network's failure state evolves —
// a healthy start, a gray failure appearing (first watched in continuous-diagnosis mode,
// where the window probes in segments and PLL runs on the running observation totals every
// few segments, printing when the failure is first *seen*), a second concurrent failure, a
// pinger dying (watchdog + cycle recompute), recovery, and finally a stretch of continuous
// topology churn: a ChurnGenerator trace sliced across windows drives ApplyTopologyDelta
// mid-window through the incremental repair path, and a RecomputeCycle closes the run like
// the 10-minute re-plan would. Prints a timeline of alarms and churn activity.
//
// PR 5 adds the split deployment shape from the paper's real system: `--mode=agent` runs the
// pinger side alone — every pinglist probes its window and ships the counters as CRC-framed
// varint reports over real UDP to 127.0.0.1:--port — and `--mode=collector` binds that port,
// folds arriving frames into an ObservationStore (idempotent per (pinger, window, seq)), and
// runs the PLL diagnosis whenever the reporters advance to the next window. Run one of each
// in two terminals:
//
//   ./monitor_daemon --mode=collector --port=9477
//   ./monitor_daemon --mode=agent --port=9477 --report-windows=3
//
// PR 6 scales the collector side out: `--mode=collector --partition=i/N` runs collector i of
// an N-way fabric — it binds port+i, owns the deterministic 1/N partition of the pinger
// space (both halves derive the same PartitionMap from the same topology, no config
// exchange), rejects-and-counts misrouted frames, and drains through --ingest-shards
// pinger-affine queues. The agent routes every pinglist's frames to the owning partition's
// port when started with the matching --collectors=N. A 2-collector localhost run:
//
//   ./monitor_daemon --mode=collector --port=9477 --partition=0/2 &
//   ./monitor_daemon --mode=collector --port=9477 --partition=1/2 &
//   ./monitor_daemon --mode=agent --port=9477 --collectors=2 --report-windows=3
//
// PR 9 separates ingest from retention: `--history-dir=DIR` makes every mode seal its
// aggregation windows into an append-only WindowLog there (demo/direct windows with their full
// diagnosis timeline, the split collector its per-window diagnoses, the split agent the
// counters it shipped), and `--mode=query` answers forensic questions over a recorded
// directory — retained range, top suspect links, loss episodes, per-rack rollups, and replay
// of the logged windows at an altered hit-ratio threshold, without re-running a single probe:
//
//   ./monitor_daemon --history-dir=out/history
//   ./monitor_daemon --mode=query --history-dir=out/history --replay-threshold=0.3
//
//   ./monitor_daemon [--mode=demo|agent|collector|query] [--k=6] [--windows-per-phase=2]
//                    [--churn-windows=4] [--churn-per-minute=4] [--segments=10]
//                    [--diagnose-every=2] [--sliding-window=2] [--port=9477]
//                    [--report-windows=3] [--batch=64] [--idle-ms=2000]
//                    [--listen-seconds=120] [--partition=i/N] [--collectors=N]
//                    [--ingest-shards=K] [--seed=9] [--history-dir=DIR]
//                    [--history-segments=N] [--horizon=W] [--last-n=N]
//                    [--replay-threshold=X]
//
// PR 10 adds the multi-signal anomaly plane: `--anomaly` turns on per-path RTT sampling into
// deterministic quantile sketches and adaptive EWMA baselines (loss rate, RTT p50/p99) at
// every diagnosis boundary, so a delay-but-deliver gray failure — invisible to the loss
// pipeline — is localized through the same PLL machinery; the demo adds a pure-latency phase
// to show it, windows seal the anomaly timeline into the history log, and `--mode=query`
// prints per-link anomaly timelines next to the loss episodes. Tune with `--ewma-alpha`,
// `--rtt-bins`, and `--anomaly-horizon`.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/flags.h"
#include "src/detector/analyzer.h"
#include "src/detector/system.h"
#include "src/history/query.h"
#include "src/history/window_log.h"
#include "src/localize/metrics.h"
#include "src/net/udp.h"
#include "src/report/collector.h"
#include "src/report/emitter.h"
#include "src/report/partition.h"
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

// Both halves of the split deployment build the same system deterministically, so the agent's
// slot numbering and the collector's probe matrix agree without any config exchange.
detector::DetectorSystemOptions SplitModeOptions() {
  detector::DetectorSystemOptions options;
  options.pmc.alpha = 2;
  options.pmc.beta = 1;
  return options;
}

// Both halves derive the fabric's ownership map from the same deterministically-built system,
// so agent-side routing and collector-side rejection agree with no config exchange.
detector::PartitionMap SplitModePartition(const detector::DetectorSystem& system,
                                          size_t num_partitions) {
  std::vector<detector::NodeId> pingers;
  pingers.reserve(system.pinglists().size());
  for (const detector::Pinglist& list : system.pinglists()) {
    pingers.push_back(list.pinger);
  }
  return detector::PartitionMap::Build(std::move(pingers), num_partitions);
}

// The failure the agent's network exhibits and the collector should localize: the demo's gray
// failure, a 50% packet blackhole on an agg-core link.
detector::FailureScenario SplitModeScenario(const detector::FatTree& fattree) {
  detector::FailureScenario scenario;
  detector::LinkFailure f;
  f.link = fattree.AggCoreLink(1, 0, 1);
  f.type = detector::FailureType::kDeterministicPartial;
  f.match_fraction = 0.5;
  f.rule_seed = 1234;
  scenario.failures.push_back(f);
  return scenario;
}

// Tees the counters an agent ships into a local store shard (when `local` is non-null), so
// agent mode can retain what it shipped in a WindowLog through its own Analyzer.
class TeeReportSink final : public detector::ReportSink {
 public:
  TeeReportSink(detector::ReportSink& inner, detector::ObservationStore::Shard* local)
      : inner_(inner), local_(local) {}
  void OnPath(detector::PathId slot, detector::NodeId target, int64_t sent,
              int64_t lost) override {
    inner_.OnPath(slot, target, sent, lost);
    if (local_ != nullptr) {
      local_->RecordPath(slot, target, sent, lost);
    }
  }
  void OnIntraRack(detector::NodeId target, int64_t sent, int64_t lost) override {
    inner_.OnIntraRack(target, sent, lost);
    if (local_ != nullptr) {
      local_->RecordIntraRack(target, sent, lost);
    }
  }

 private:
  detector::ReportSink& inner_;
  detector::ObservationStore::Shard* local_;
};

// Split-mode options that retain every window at --history-dir (when set).
detector::DetectorSystemOptions SplitModeHistoryOptions(const detector::Flags& flags) {
  detector::DetectorSystemOptions options = SplitModeOptions();
  options.history_dir = flags.GetString("history-dir", "");
  options.history_max_segments = static_cast<size_t>(flags.GetInt("history-segments", 0));
  return options;
}

// True when `analyzer` retains its windows; reports a log that failed to open.
bool Retaining(const detector::Analyzer& analyzer) {
  const detector::WindowLogWriter* log = analyzer.history_log();
  if (log != nullptr && !log->ok()) {
    std::fprintf(stderr, "history disabled: %s\n", log->error().c_str());
    return false;
  }
  return log != nullptr;
}

// --mode=agent: the pinger side alone. Probes every pinglist's window and ships the counters
// as wire frames over UDP; the collector process owns the diagnosis. With --history-dir the
// agent also retains what it shipped, through a local Analyzer.
int RunAgent(const detector::Flags& flags) {
  using namespace detector;
  const int k = static_cast<int>(flags.GetInt("k", 6));
  const uint16_t port = static_cast<uint16_t>(flags.GetInt("port", 9477));
  const int windows = std::max(1, static_cast<int>(flags.GetInt("report-windows", 3)));
  const size_t batch = static_cast<size_t>(flags.GetInt("batch", 64));
  const size_t collectors = std::max<size_t>(1, static_cast<size_t>(flags.GetInt("collectors", 1)));
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 9)));

  // One UDP socket per collector partition: partition i listens on port + i.
  std::vector<std::unique_ptr<UdpTransport>> transports;
  for (size_t i = 0; i < collectors; ++i) {
    std::string error;
    auto transport = UdpTransport::Connect(static_cast<uint16_t>(port + i), &error);
    if (transport == nullptr) {
      std::printf("NOTICE: UDP sockets unavailable (%s) — agent mode skipped\n", error.c_str());
      return 0;
    }
    transports.push_back(std::move(transport));
  }
  const FatTree fattree(k);
  const FatTreeRouting routing(fattree);
  const DetectorSystemOptions options = SplitModeOptions();
  DetectorSystem system(routing, options);
  const PartitionMap partition = SplitModePartition(system, collectors);
  const ProbeEngine engine(fattree.topology(), SplitModeScenario(fattree), options.probe);
  const Watchdog watchdog(fattree.topology());
  // Retains the agent's shipped counters, and its local diagnosis of them.
  auto history =
      std::make_unique<Analyzer>(SplitModeHistoryOptions(flags), system.probe_matrix(), watchdog);
  if (!Retaining(*history)) {
    history.reset();
  }
  std::printf("agent on Fattree(%d): %zu pinglists -> 127.0.0.1:%u..%u (%zu collectors), "
              "%d windows%s\n",
              k, system.pinglists().size(), port,
              static_cast<unsigned>(port + collectors - 1), collectors, windows,
              history != nullptr ? " (retaining shipped counters)" : "");

  uint64_t prev_wire_bytes = 0;
  for (int w = 1; w <= windows; ++w) {
    const uint64_t window_seed = rng();
    uint64_t frames = 0;
    uint64_t observations = 0;
    int64_t probes = 0;
    if (history != nullptr) {
      history->OpenWindow(static_cast<uint64_t>(w - 1));
    }
    for (const Pinglist& list : system.pinglists()) {
      if (list.entries.empty()) {
        continue;
      }
      Transport& wire_out = *transports[static_cast<size_t>(partition.RouteOf(list.pinger))];
      // Every record ships with epoch 0, the fresh-store default the collector's window
      // starts at.
      ReportEmitter emitter(list.pinger, static_cast<uint64_t>(w), 0, {}, wire_out, batch);
      TeeReportSink tee(emitter, history != nullptr
                                     ? &history->diagnoser().store().OpenShard(list.pinger)
                                     : nullptr);
      Rng shard_rng = ProbeEngine::ShardRng(window_seed, static_cast<uint64_t>(list.pinger));
      const Pinger pinger(list, options.confirm_packets);
      probes += pinger.RunWindowTo(engine, options.window_seconds, shard_rng, tee).probes_sent;
      emitter.Flush();
      frames += emitter.stats().frames_emitted;
      observations += emitter.stats().observations_emitted;
    }
    uint64_t wire_bytes = 0;
    for (const auto& transport : transports) {
      wire_bytes += transport->stats().bytes_sent;
    }
    if (history != nullptr) {
      // One sealed boundary per window: the agent's local view of what it shipped.
      history->CloseWindow(/*segment=*/1, options.window_seconds, /*churn_events=*/0,
                           /*dead_links=*/0, probes,
                           static_cast<int64_t>(wire_bytes - prev_wire_bytes));
    }
    prev_wire_bytes = wire_bytes;
    std::printf("agent window %d: %llu frames / %llu observations shipped (%llu wire bytes"
                " total)\n",
                w, static_cast<unsigned long long>(frames),
                static_cast<unsigned long long>(observations),
                static_cast<unsigned long long>(wire_bytes));
    // A breath between windows keeps localhost socket buffers comfortable at large k.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (history != nullptr) {
    std::printf("agent history: %llu windows sealed to %s\n",
                static_cast<unsigned long long>(history->history_log()->records_appended()),
                history->history_log()->dir().c_str());
  }
  std::printf("agent done\n");
  return 0;
}

// --mode=collector: binds the UDP port, folds arriving frames into an ObservationStore, and
// diagnoses a window as soon as the reporters advance past it (plus the final window once
// traffic goes idle).
int RunCollector(const detector::Flags& flags) {
  using namespace detector;
  const int k = static_cast<int>(flags.GetInt("k", 6));
  const uint16_t port = static_cast<uint16_t>(flags.GetInt("port", 9477));
  const int idle_ms = static_cast<int>(flags.GetInt("idle-ms", 2000));
  const double listen_seconds = static_cast<double>(flags.GetInt("listen-seconds", 120));
  const size_t ingest_shards =
      std::max<size_t>(1, static_cast<size_t>(flags.GetInt("ingest-shards", 1)));
  const uint64_t horizon = static_cast<uint64_t>(flags.GetInt("horizon", 3));

  // --partition=i/N: this process is collector i of an N-way fabric and binds port + i.
  int partition_index = 0;
  int partition_count = 1;
  const std::string partition_flag = flags.GetString("partition", "0/1");
  if (std::sscanf(partition_flag.c_str(), "%d/%d", &partition_index, &partition_count) != 2 ||
      partition_count < 1 || partition_index < 0 || partition_index >= partition_count) {
    std::fprintf(stderr, "bad --partition=%s (expected i/N with 0 <= i < N)\n",
                 partition_flag.c_str());
    return 1;
  }

  std::string error;
  auto transport =
      UdpTransport::Bind(static_cast<uint16_t>(port + partition_index), &error);
  if (transport == nullptr) {
    std::printf("NOTICE: UDP sockets unavailable (%s) — collector mode skipped\n",
                error.c_str());
    return 0;
  }
  const FatTree fattree(k);
  const FatTreeRouting routing(fattree);
  DetectorSystem system(routing, SplitModeOptions());
  const PartitionMap partition =
      SplitModePartition(system, static_cast<size_t>(partition_count));
  const Topology& topo = fattree.topology();
  const Watchdog watchdog(topo);
  Analyzer analyzer(SplitModeHistoryOptions(flags), system.probe_matrix(), watchdog);
  const bool retaining = Retaining(analyzer);
  CollectorOptions collector_options;
  collector_options.ingest_shards = ingest_shards;
  // Liveness in window units: the clock ticks once per window open, so a pinger silent for
  // `horizon` windows shows up in StalePingers().
  collector_options.liveness_horizon = horizon;
  Collector collector(analyzer.diagnoser().store(), collector_options);
  collector.SetPartition(&partition, partition_index);
  std::printf("collector %d/%d on Fattree(%d): listening on 127.0.0.1:%u (%zu slots, "
              "%zu of %zu pingers owned, %zu ingest shards)\n",
              partition_index, partition_count, k, transport->port(),
              system.probe_matrix().NumPaths(),
              [&] {
                size_t owned = 0;
                for (const Pinglist& list : system.pinglists()) {
                  if (partition.RouteOf(list.pinger) == partition_index) {
                    ++owned;
                  }
                }
                return owned;
              }(),
              system.pinglists().size(), ingest_shards);

  analyzer.Serve(collector, ReceiveUntilIdle(*transport, idle_ms, listen_seconds),
                 [&](uint64_t window, const WindowDiagnosis& diagnosis) {
                   std::printf("collector window %llu: %llu frames folded so far, alarms=%zu",
                               static_cast<unsigned long long>(window),
                               static_cast<unsigned long long>(collector.stats().frames_folded),
                               diagnosis.localization.links.size());
                   for (const auto& s : diagnosis.localization.links) {
                     std::printf("  %s(est=%.3f)", topo.LinkName(s.link).c_str(),
                                 s.estimated_loss_rate);
                   }
                   std::printf("\n");
                 });
  const CollectorStats stats = collector.stats();
  std::printf("collector done: %llu frames folded, %llu duplicates, %llu decode errors, "
              "%llu tampered, %llu stale-window, %llu wrong-partition rejected\n",
              static_cast<unsigned long long>(stats.frames_folded),
              static_cast<unsigned long long>(stats.duplicates_dropped),
              static_cast<unsigned long long>(stats.decode_errors),
              static_cast<unsigned long long>(stats.tampered_dropped),
              static_cast<unsigned long long>(stats.stale_window_dropped),
              static_cast<unsigned long long>(stats.wrong_partition_dropped));
  std::printf("collector liveness: %llu pingers tracked, %llu stale (horizon %llu windows)",
              static_cast<unsigned long long>(stats.pingers_tracked),
              static_cast<unsigned long long>(stats.stale_pingers),
              static_cast<unsigned long long>(horizon));
  const std::vector<NodeId> stale = collector.StalePingers();
  for (size_t i = 0; i < stale.size() && i < 8; ++i) {
    std::printf("  %s", topo.node(stale[i]).name.c_str());
  }
  if (stale.size() > 8) {
    std::printf("  (+%zu more)", stale.size() - 8);
  }
  std::printf("\n");
  if (retaining) {
    std::printf("collector history: %llu windows sealed to %s\n",
                static_cast<unsigned long long>(analyzer.history_log()->records_appended()),
                analyzer.history_log()->dir().c_str());
  }
  return 0;
}

// --mode=query: the forensic plane. Loads a WindowLog directory recorded by any other mode
// and answers on-demand questions over the retained range: top suspect links and their loss
// episodes, per-rack rollups, and — with --replay-threshold — a what-if replay of every
// logged window through the Diagnoser at the altered threshold, probe-free.
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

  const FatTree fattree(k);
  const Topology& topo = fattree.topology();

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
    // Rebuild the probe matrix the recording modes build (deterministic, no config exchange;
    // demo and split modes share the same PMC shape). A log recorded at another k will not
    // line up — say so instead of replaying garbage.
    const FatTreeRouting routing(fattree);
    DetectorSystemOptions options;
    options.pmc.alpha = 2;
    options.pmc.beta = 1;
    const DetectorSystem system(routing, options);
    if (engine.window(0).num_slots > system.probe_matrix().NumPaths()) {
      std::fprintf(stderr,
                   "log has %llu slots but fat-tree(%d) builds %zu probe paths — wrong --k?\n",
                   static_cast<unsigned long long>(engine.window(0).num_slots), k,
                   system.probe_matrix().NumPaths());
      return 1;
    }
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
  flags.Describe("mode",
                 "demo (default, single process), agent (probe + report over UDP), or "
                 "collector (ingest + diagnose)");
  flags.Describe("k", "fat-tree arity (default 6)");
  flags.Describe("windows-per-phase", "30 s windows per failure phase (default 2)");
  flags.Describe("churn-windows", "windows of continuous topology churn (default 4)");
  flags.Describe("churn-per-minute", "link churn events per minute in the churn phase");
  flags.Describe("segments", "probe slices per window in the streaming phase (default 10)");
  flags.Describe("diagnose-every", "streaming diagnosis cadence in segments (default 2)");
  flags.Describe("sliding-window",
                 "trailing window of the loss-episode phase, in segments (default 2)");
  flags.Describe("port", "UDP port of the split agent/collector pair (default 9477)");
  flags.Describe("report-windows", "windows the agent reports before exiting (default 3)");
  flags.Describe("batch", "observations per wire frame in agent mode (default 64)");
  flags.Describe("idle-ms",
                 "collector exits after this long without traffic, once any arrived");
  flags.Describe("listen-seconds", "collector's overall listening deadline (default 120)");
  flags.Describe("partition",
                 "i/N — this collector owns partition i of an N-way fabric and binds port+i "
                 "(default 0/1)");
  flags.Describe("collectors",
                 "agent mode: size N of the collector fabric to route frames across "
                 "(default 1)");
  flags.Describe("ingest-shards",
                 "collector mode: pinger-affine decode/fold queues (default 1)");
  flags.Describe("seed", "rng seed (default 9)");
  flags.Describe("pmc-repair-threads",
                 "threads for multi-component churn repair (default 1; 0 = hardware)");
  flags.Describe("decay-quantized",
                 "quantized (shift-halving, incremental-PLL) exponential-decay view");
  flags.Describe("history-dir",
                 "WindowLog directory: demo/agent/collector modes seal windows into it, "
                 "query mode reads it (default off)");
  flags.Describe("history-segments",
                 "bounded retention: keep at most N window-log segment files (default 0 = "
                 "unbounded)");
  flags.Describe("horizon",
                 "collector mode: flag pingers silent for this many windows as stale "
                 "(default 3)");
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
  if (mode == "agent") {
    return RunAgent(flags);
  }
  if (mode == "collector") {
    return RunCollector(flags);
  }
  if (mode == "query") {
    return RunQuery(flags);
  }
  if (mode != "demo") {
    std::fprintf(stderr, "unknown --mode=%s (expected demo, agent, collector, or query)\n",
                 mode.c_str());
    return 1;
  }
  const int k = static_cast<int>(flags.GetInt("k", 6));
  const int per_phase = static_cast<int>(flags.GetInt("windows-per-phase", 2));
  const int churn_windows = static_cast<int>(flags.GetInt("churn-windows", 4));
  const double churn_per_minute = flags.GetDouble("churn-per-minute", 4.0);
  const int segments = static_cast<int>(flags.GetInt("segments", 10));
  const int diagnose_every = static_cast<int>(flags.GetInt("diagnose-every", 2));
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 9)));

  const FatTree fattree(k);
  const FatTreeRouting routing(fattree);
  DetectorSystemOptions options;
  options.pmc.alpha = 2;
  options.pmc.beta = 1;
  options.pmc_repair_threads =
      std::max(0, static_cast<int>(flags.GetInt("pmc-repair-threads", 1)));
  options.decay_quantized = flags.GetBool("decay-quantized", false);
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

  // Phase 1: healthy network.
  run_phase("healthy", FailureScenario{});

  // Phase 2: a gray failure — packet blackhole on an agg-core link. The first window runs in
  // continuous-diagnosis mode: probes run in `segments` slices and PLL runs on the running
  // observation totals every `diagnose_every` slices, so the blackhole is seen seconds after
  // it manifests instead of at the window boundary.
  FailureScenario gray;
  {
    LinkFailure f;
    f.link = fattree.AggCoreLink(1, 0, 1);
    f.type = FailureType::kDeterministicPartial;
    f.match_fraction = 0.5;
    f.rule_seed = 1234;
    gray.failures.push_back(f);
  }
  system.set_segments_per_window(segments);
  system.set_diagnose_every_segments(diagnose_every);
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
  if (first_seen > 0.0) {
    std::printf("--- blackhole first seen %.1f s into the window (batch reports at %.0f s) ---\n",
                first_seen, options.window_seconds);
  }
  PrintWindow(topo, window++, streamed.window, "blackhole (streaming)");

  // Phase 2b: an appear-and-clear full-loss episode inside one otherwise-healthy window,
  // watched with the sliding-segment view — mid-window diagnoses localize over the trailing
  // `sliding-window` segment deltas, so the alarm raises while the episode is live and drops
  // once it leaves the trailing window, instead of the whole-window totals alarming for the
  // rest of the window after the failure already cleared.
  const double segment_seconds = options.window_seconds / segments;
  FailureScenario episode_scenario;
  FailureEpisode episode;
  episode.failure.link = fattree.EdgeAggLink(2, 1, 0);
  episode.failure.type = FailureType::kFullLoss;
  episode.start_seconds = 2.0 * segment_seconds;
  episode.end_seconds = 4.0 * segment_seconds;
  episode_scenario.episodes.push_back(episode);
  system.set_streaming_view(StreamingViewMode::kSliding);
  system.set_sliding_window_segments(static_cast<int>(flags.GetInt("sliding-window", 2)));
  const auto sliding = system.RunWindowStreaming(episode_scenario, {}, rng);
  // The timeline's last entry is the window-end cumulative diagnosis; the trailing-view story
  // is in the mid-window entries.
  double last_seen = -1.0;
  for (size_t i = 0; i + 1 < sliding.timeline.size(); ++i) {
    for (const auto& s : sliding.timeline[i].localization.links) {
      if (s.link == episode.failure.link) {
        last_seen = sliding.timeline[i].time_seconds;
      }
    }
  }
  const double episode_first = sliding.FirstDetectionSeconds(episode.failure.link);
  std::printf("--- episode [%.0f s, %.0f s): sliding view first saw it at %.1f s and last "
              "named it at %.1f s (clear once it left the trailing window) ---\n",
              episode.start_seconds, episode.end_seconds, episode_first, last_seen);
  PrintWindow(topo, window++, sliding.window, "loss episode (sliding view)");
  system.set_streaming_view(StreamingViewMode::kCumulative);

  // Phase 2c (anomaly plane only): a true gray failure — every packet delivered, every packet
  // 2.5 ms late. The loss pipeline stays silent; the RTT baselines flag the paths and PLL
  // localizes the link from the pseudo-observations. A clean warmup window lets the EWMA
  // baselines learn "normal" first.
  if (options.anomaly) {
    const FailureScenario latency_gray =
        GrayLatencyScenario(fattree.AggCoreLink(0, 1, 0), /*added_delay_us=*/2500.0);
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
    }
    PrintWindow(topo, window++, latency.window, "latency-only gray failure");
  }

  system.set_segments_per_window(1);
  system.set_diagnose_every_segments(1);
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

  // Phase 3b: the same traffic with the report plane on — shard counters leave the pingers as
  // CRC-framed varint reports over in-process loopbacks and fold back through a 2-collector
  // fabric (each owning half the pinger space, each draining 2 pinger-affine ingest shards).
  // Lossless loopback makes these windows bit-identical to direct-mode windows on the same
  // seed (the ctest gate); here it just shows the wire in the single-process demo.
  system.set_report_plane(true);
  system.set_report_collectors(2);
  system.set_report_ingest_shards(2);
  run_phase("blackhole + loss (report plane)", two);
  const CollectorStats report_stats = system.collector_group()->stats();
  std::printf("--- report plane (2 collectors x 2 ingest shards): %llu frames / %llu "
              "observations folded, %llu duplicates, %llu decode errors, %llu tampered, "
              "%llu stale-window, %llu misrouted, %llu stale pingers ---\n",
              static_cast<unsigned long long>(report_stats.frames_folded),
              static_cast<unsigned long long>(report_stats.observations_folded),
              static_cast<unsigned long long>(report_stats.duplicates_dropped),
              static_cast<unsigned long long>(report_stats.decode_errors),
              static_cast<unsigned long long>(report_stats.tampered_dropped),
              static_cast<unsigned long long>(report_stats.stale_window_dropped),
              static_cast<unsigned long long>(report_stats.wrong_partition_dropped),
              static_cast<unsigned long long>(report_stats.stale_pingers));
  system.set_report_plane(false);
  system.set_report_collectors(1);
  system.set_report_ingest_shards(1);

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
  // pinglist diffs), so probing keeps running while links flap and drain under it.
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
  return 0;
}
