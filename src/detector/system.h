// DetectorSystem: the end-to-end deTector pipeline (§3.2) over the simulator — path
// computation (PMC or a structured matrix), probing (controller -> pingers -> probe engine),
// and loss localization (diagnoser/PLL), organized in 30 s windows within 10-minute cycles.
//
// Window execution is sharded: each non-empty pinglist becomes one shard, shards run
// concurrently on a thread pool (probe_threads), and every shard streams its counters into the
// diagnoser's ObservationStore on its own RNG stream keyed by (window seed, pinger id) — so a
// window's WindowResult is bit-identical at any thread count.
//
// Topology churn runs through ApplyTopologyDelta(): overlay update -> incremental probe-matrix
// repair (IncrementalPmc) -> minimal per-pinger pinglist diffs — the milliseconds-scale
// alternative to RecomputeCycle()'s from-scratch rebuild. RunWindowStreaming() also applies
// churn mid-window: probes before each event see the failed links, the delta is applied at its
// timestamp, and the remainder of the window probes with the repaired pinglists.
//
// Continuous diagnosis: a window can be executed in segments_per_window equal probe slices
// instead of one monolithic slice, and RunWindowStreaming() then diagnoses on the store's
// running totals every diagnose_every_segments slices — a time series of LocalizeResults that
// prices how fast a failure is *seen*, not just whether it is. The final-segment result is
// bit-identical whatever the cadence on the same seed and slicing (the mid-window reads are
// non-consuming), which is test-gated; diagnose_every_segments = segments_per_window is the
// batch window, diagnosed once at its end. Every diagnosis boundary and the window close run
// through the Analyzer (src/detector/analyzer.h), the same window driver the deployed
// collectors use.
#ifndef SRC_DETECTOR_SYSTEM_H_
#define SRC_DETECTOR_SYSTEM_H_

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "src/anomaly/anomaly_engine.h"
#include "src/common/thread_pool.h"
#include "src/detector/analyzer.h"
#include "src/detector/controller.h"
#include "src/detector/diagnoser.h"
#include "src/detector/pinger.h"
#include "src/history/window_log.h"
#include "src/history/window_sink.h"
#include "src/localize/pll.h"
#include "src/net/transport.h"
#include "src/pmc/incremental.h"
#include "src/pmc/pmc.h"
#include "src/report/collector.h"
#include "src/report/collector_group.h"
#include "src/report/emitter.h"
#include "src/report/partition.h"
#include "src/routing/path_provider.h"
#include "src/sim/churn.h"
#include "src/sim/probe_engine.h"
#include "src/sim/watchdog.h"
#include "src/topo/delta.h"

namespace detector {

// What the mid-window diagnoses of RunWindowStreaming localize over; the Analyzer that closes
// the window's boundaries selects it. The window-end diagnosis is always the cumulative
// whole-window one, through the same incremental PLL state the kCumulative boundaries keep, so
// the final result is bit-identical at every cadence in either view.
enum class StreamingViewMode {
  kCumulative,  // the whole accumulated window (incremental PLL over dirty components)
  kSliding,     // the trailing sliding_window_segments segment deltas — localizes loss
                // episodes that appear and clear inside one window
};

struct DetectorSystemOptions {
  ControllerOptions controller;
  PmcOptions pmc;
  PathEnumMode enum_mode = PathEnumMode::kFull;
  PllOptions pll;
  ProbeConfig probe;
  double window_seconds = 30.0;  // report aggregation / diagnosis period
  int confirm_packets = 2;
  // Probe-plane shard parallelism: each window splits into per-pinger shards executed on this
  // many threads (0 = hardware concurrency). Results are bit-identical at any thread count —
  // every shard draws from its own RNG stream keyed by (window seed, pinger id).
  size_t probe_threads = 0;
  // Threads IncrementalPmc::ApplyDelta may repair touched decomposition components on when a
  // maintenance wave dirties several at once (0 = hardware concurrency). Bit-identical to
  // serial repair at any value. Ignored in fixed-matrix mode (no solver to parallelize).
  int pmc_repair_threads = 1;
  // Continuous diagnosis: probe slices per window (1 = the classic monolithic batch window;
  // higher values execute the same window in equal time slices, each on its own shard seed)
  // and how often to diagnose, in slices (>= segments_per_window = once, at window end).
  // Slicing changes the RNG trajectory, so results are comparable only between runs with the
  // same slicing.
  int segments_per_window = 1;
  int diagnose_every_segments = 1;
  // Mid-window diagnosis view (see StreamingViewMode) and its width. The ring behind the
  // sliding view is only maintained while that view is selected, so the default cumulative
  // view pays nothing for it.
  StreamingViewMode streaming_view = StreamingViewMode::kCumulative;
  int sliding_window_segments = 4;  // trailing window width, in segments (kSliding only)
  // Report plane: shards emit their counters as encoded wire frames (src/report) over a
  // transport (src/net) into a Collector that folds them back into the ObservationStore,
  // instead of writing the store directly — the deployed pinger -> analyzer seam. Under the
  // default lossless in-process loopback this is bit-identical to direct mode (ctest-gated);
  // SetReportTransportFactory installs other transports, such as an ImpairmentTransport over
  // the loopback to inject faults. (The in-process plane needs a transport whose Send
  // round-trips to its own Receive; the split UDP deployment instead pairs a Connect-side
  // emitter process with a Bind-side collector process — see examples/fleet_runner.cc
  // --role=agent|collector.)
  bool report_plane = false;
  // Observations batched per wire frame before the emitter seals and sends it.
  size_t report_batch_entries = 64;
  // Collector fabric: the report plane runs N collector instances, each owning a static
  // partition of the pinger space (a deterministic PartitionMap over the pinglists, rebuilt
  // at every window open), each with its own transport; emitters route frames by the map.
  // All N fold into the one diagnosis-tier store; their partitions are disjoint, so no
  // observation folds twice.
  size_t report_collectors = 1;
  // Held unread for perfbench/, which sets it, until the benchmark's next change: a collector
  // folds every frame on receipt, on one lane.
  size_t report_ingest_shards = 1;
  // Frame-authentication key shared by every emitter and collector in this system (see
  // ReportKey) — frames tagged under any other key are rejected kBadAuth and counted as
  // tampered, never folded.
  ReportKey report_key;
  // Collector liveness horizon in clock ticks (every window open and segment boundary is a
  // tick): a pinger silent longer than this is reported stale via CollectorStats. 0 = off.
  uint64_t report_liveness_horizon = 0;
  // Retention seam (src/history): non-empty publishes every sealed window — per-boundary
  // observation deltas, the diagnosis timeline, churn metadata — into an append-only
  // WindowLog under this directory, in direct and report-plane mode alike. The log
  // authenticates records under report_key, the same deployment key the wire frames use.
  // Empty (the default) retains nothing — the window's state evaporates at the boundary
  // exactly as before.
  std::string history_dir;
  // Window-log rotation/retention knobs (see WindowLogOptions): records per segment file, and
  // how many segment files to keep (0 = unbounded).
  size_t history_segment_records = 256;
  size_t history_max_segments = 0;
  // Multi-signal anomaly plane (src/anomaly): pingers additionally sample per-path RTT into
  // deterministic mergeable sketches carried through the store (and, in report mode, the wire
  // frames); at every diagnosis boundary adaptive EWMA baselines watch the loss-rate and
  // RTT-quantile deltas, and sustained excursions are fused through the PLL partition
  // machinery into LinkAnomaly alarms — gray failures that delay-but-deliver are localized
  // without any fixed loss threshold. Off by default: with anomaly == false no RTT is sampled
  // and every loss counter, RNG draw, and diagnosis is bit-identical to the pre-anomaly build.
  bool anomaly = false;
  AnomalyOptions anomaly_options;
  // RTT observation channel (anomaly == true): samples per surviving path per probe slice and
  // the sketch resolution, plus the queueing model the samples are drawn from.
  int rtt_samples_per_path = 4;
  int rtt_bins = RttSketch::kDefaultBins;
  LatencyModelOptions latency;
};

class DetectorSystem {
 public:
  // Computes the probe matrix from the provider with PMC. The enumerated candidate set is
  // retained (inside an IncrementalPmc) so topology deltas can be absorbed incrementally.
  DetectorSystem(const PathProvider& provider, DetectorSystemOptions options);
  // Uses a pre-built probe matrix (e.g. the structured generator at large scale). Without a
  // candidate set, ApplyTopologyDelta degrades to dropping/restoring pinglist entries on the
  // affected links — no greedy repair.
  DetectorSystem(const Topology& topo, ProbeMatrix matrix, DetectorSystemOptions options);

  // Re-runs path computation and pinglist dispatch (start of a 10-minute cycle). Respects
  // current watchdog and link-state overlay: the rebuild covers live links only.
  void RecomputeCycle();

  struct ChurnApplyResult {
    ChurnRepairStats repair;
    size_t links_gone_dead = 0;
    size_t links_back_live = 0;
    size_t paths_removed = 0;
    size_t paths_added = 0;
    size_t pinglists_touched = 0;
    size_t entries_removed = 0;
    size_t entries_added = 0;
    uint64_t overlay_version = 0;
    std::vector<PinglistDiff> diffs;  // the per-pinger work orders this delta dispatched
    // Matrix slots the repair vacated: their old path is gone from the matrix (and the slot
    // may be reused), so buffered observations keyed by these slots are stale. Paths that were
    // merely redispatched to other pingers (server churn) are not listed — their slots and
    // observations stay valid.
    std::vector<PathId> slots_vacated;
  };

  // Absorbs one topology delta without a full recompute: updates the link-state overlay and
  // watchdog (server churn), repairs the probe matrix incrementally, and dispatches minimal
  // pinglist diffs. The cheap alternative to RecomputeCycle().
  ChurnApplyResult ApplyTopologyDelta(const TopologyDelta& delta);

  struct WindowResult {
    LocalizeResult localization;
    std::vector<ServerLinkAlarm> server_link_alarms;
    // Anomaly-plane alarms at window end (empty unless options.anomaly).
    std::vector<LinkAnomaly> anomalies;
    int64_t probes_sent = 0;  // round trips including confirmations
    int64_t bytes_sent = 0;
    double detection_latency_seconds = 0.0;
    size_t churn_events_applied = 0;
  };

  // One mid-window diagnosis taken at a segment boundary (continuous mode).
  struct SegmentDiagnosis {
    int segment = 0;             // 1-based index of the boundary the diagnosis was taken at
    double time_seconds = 0.0;   // window-relative boundary time
    LocalizeResult localization;
    std::vector<ServerLinkAlarm> server_link_alarms;
    // Anomaly-plane alarms raised at this boundary (empty unless options.anomaly).
    std::vector<LinkAnomaly> anomalies;
  };

  struct StreamingWindowResult {
    WindowResult window;  // identical at every cadence on the same seed and slicing
    // Diagnoses at every diagnose_every_segments boundary plus the window-end diagnosis, in
    // time order; the last entry always equals window.localization.
    std::vector<SegmentDiagnosis> timeline;

    // Window-relative time of the first diagnosis whose suspect set contains `link`
    // (first-detection latency of an injected failure); negative when never detected.
    double FirstDetectionSeconds(LinkId link) const;
  };

  // One 30 s window under the given failure scenario — the only window entry point. Probes
  // run in segments_per_window slices and PLL runs on the running observation totals every
  // diagnose_every_segments boundaries without consuming them; the window result does not
  // depend on the cadence. `churn` event times are window-relative: events inside
  // [0, window_seconds) are applied at their timestamps, later ones are ignored. Probes sent
  // before an event experience full loss on down links; after the event the repaired
  // pinglists route around them. To drive consecutive windows from one long ChurnGenerator
  // trace, rebase it per window with WindowSlice (src/sim/churn.h).
  StreamingWindowResult RunWindowStreaming(const FailureScenario& scenario,
                                           std::span<const ChurnEvent> churn, Rng& rng);

  const Topology& topology() const { return topo_; }
  const ProbeMatrix& probe_matrix() const { return matrix_; }
  const std::vector<Pinglist>& pinglists() const { return pinglists_; }
  Watchdog& watchdog() { return watchdog_; }
  const PmcStats& pmc_stats() const { return pmc_stats_; }
  const LinkStateOverlay& overlay() const { return overlay_; }
  // Null when constructed from a fixed matrix.
  const IncrementalPmc* incremental() const { return incremental_.get(); }
  // Per-partition transport factory for the collector fabric: called once per collector
  // index at the next report-plane window open, replacing the default lossless
  // LoopbackTransports (a null factory restores them). Each transport must round-trip its own
  // Send to its own Receive — in practice a LoopbackTransport, usually under an
  // ImpairmentTransport that injects faults.
  // Drops the transports already installed, and with them any frames still in flight.
  void SetReportTransportFactory(std::function<std::unique_ptr<Transport>(size_t)> factory);
  // Null until the first report-plane window ran.
  const CollectorGroup* collector_group() const { return collector_group_.get(); }
  Transport* report_transport(size_t i = 0) {
    return i < report_transports_.size() ? report_transports_[i].get() : nullptr;
  }
  // The store's merged per-slot RTT sketches captured at the last window's close, before
  // Diagnose cleared them — the bit-identity surface the thread-count and report-vs-direct
  // gates compare (empty unless options.anomaly).
  std::span<const RttSketch> last_window_rtt_totals() const {
    return analyzer_.last_rtt_totals();
  }
  // An additional, caller-owned sink sealed windows are published to alongside the on-disk
  // log (or alone, with no history_dir) — how tests and benches capture retention in memory.
  void set_history_sink(WindowSink* sink) { analyzer_.set_sink(sink); }
  // Null unless options.history_dir was set.
  const WindowLogWriter* history_log() const { return analyzer_.history_log(); }
  // Sealed windows published so far (also the next window's index in the log).
  uint64_t history_windows_sealed() const { return analyzer_.windows_sealed(); }

 private:
  // Runs [t0, t1), further sliced at the scenario's episode boundaries so every probe slice
  // sees a fixed failure set. With no episodes this is exactly one RunSegment — same RNG
  // trajectory as before episodes existed.
  void RunSpan(const FailureScenario& scenario, double t0, double t1, Rng& rng,
               WindowResult& result);
  // One probe slice: a shard per non-empty pinglist on ShardRng(window seed, pinger), spread
  // over the pool; in report mode one pool task pumps every collector while the rest probe,
  // and takes probe shards itself whenever a pass over the transports folds nothing.
  void RunSegment(const FailureScenario& scenario, double seconds, Rng& rng,
                  WindowResult& result);
  FailureScenario OverlaidScenario(const FailureScenario& scenario) const;
  // For each diffed pinglist: raises its version above the pinger's recorded high-water mark
  // (a pinger reappearing after an absence would otherwise restart at the default), patches
  // the diff to match, and records the new mark.
  void EnforceVersionFloors(std::vector<PinglistDiff>& diffs);

  const Topology& topo_;
  // Fixed at construction: a different configuration is a different system.
  const DetectorSystemOptions options_;
  std::unique_ptr<IncrementalPmc> incremental_;  // null when constructed from a fixed matrix
  ProbeMatrix matrix_;
  PmcStats pmc_stats_;
  LinkStateOverlay overlay_;
  Watchdog watchdog_;
  Controller controller_;
  // The diagnosis tier: diagnoser, anomaly engine, and window retention, closing every window
  // the way the deployed collectors do.
  Analyzer analyzer_;
  // The RTT model probe slices sample from when options_.anomaly is on.
  LatencyModel latency_model_;
  std::vector<Pinglist> pinglists_;
  // path -> pinger replica index over pinglists_, kept current by UpdatePinglists so delta
  // dispatch touches only the diff (rebuilt wholesale when BuildPinglists replaces the lists).
  PathPingerIndex path_index_;
  // Persistent shard workers, created lazily at the first parallel segment — window execution
  // must not pay thread start-up per segment.
  std::unique_ptr<ThreadPool> pool_;
  // Builds the collector fabric at the first report-plane window open and repartitions it to
  // the current pinglists at every later one; installs any missing transports.
  void PrepareReportFabric();
  PartitionMap BuildReportPartition() const;
  // Report plane (created lazily at the first report-plane window): one transport per
  // collector partition, the collector fabric folding frames into the diagnoser's store, a
  // per-window id, and per-pinger frame sequence counters continuing across a window's probe
  // segments.
  std::vector<std::unique_ptr<Transport>> report_transports_;
  std::function<std::unique_ptr<Transport>(size_t)> report_transport_factory_;
  std::unique_ptr<CollectorGroup> collector_group_;
  uint64_t report_window_id_ = 0;
  std::map<NodeId, uint64_t> report_seq_;
  // Report-plane emitters by pool task, re-armed per shard (see RunSegment).
  std::vector<std::unique_ptr<ReportEmitter>> report_emitters_;
  // Per-pinger version high-water marks. Outlives the pinglists themselves: a pinger whose
  // list vanishes for a cycle (unhealthy, no entries) must not restart at version 1, or a
  // diff consumer would discard everything after its return as stale.
  std::map<NodeId, int> version_floor_;
};

}  // namespace detector

#endif  // SRC_DETECTOR_SYSTEM_H_
