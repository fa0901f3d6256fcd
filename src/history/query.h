// QueryEngine: the forensic query plane over a WindowLog — what turns "link X is lossy now"
// into "which racks flapped during yesterday's maintenance wave". Loads a log directory's
// sealed windows and answers:
//
//  - episode queries: maximal runs of consecutive windows in which a link was named suspect
//    at window end ("loss on link X in the last N windows");
//  - per-link timelines: the link's window-end estimated loss rate across the retained range;
//  - per-rack rollups: suspect activity grouped by the rack/pod a link hangs off;
//  - replay: feed a logged window range back through a fresh, non-consuming Diagnoser —
//    boundary by boundary, ingesting each boundary's logged observation delta and diagnosing
//    exactly as the live system did. With the live PllOptions and the cumulative view the
//    replayed suspect sets are bit-identical to the logged ones at every diagnosis boundary
//    (ctest- and bench-gated); with altered thresholds it answers "what would the diagnosis
//    have said" without re-running a single probe.
#ifndef SRC_HISTORY_QUERY_H_
#define SRC_HISTORY_QUERY_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/history/window_log.h"
#include "src/history/window_sink.h"
#include "src/localize/pll.h"
#include "src/pmc/probe_matrix.h"
#include "src/sim/watchdog.h"
#include "src/topo/topology.h"

namespace detector {

struct ReplayOptions {
  PllOptions pll;  // altered thresholds go here (hit_ratio_threshold, preprocess, ...)
};

struct ReplayedBoundary {
  int segment = 0;
  double time_seconds = 0.0;
  LocalizeResult localization;
};

struct ReplayedWindow {
  uint64_t window_index = 0;
  std::vector<ReplayedBoundary> boundaries;
};

class QueryEngine {
 public:
  // Loads a log directory (tolerating a damaged tail — see ReadWindowLog). ok() is false only
  // when the directory itself is unusable.
  static QueryEngine FromDir(const std::string& dir, const ReportKey& key = ReportKey{});

  explicit QueryEngine(std::vector<SealedWindow> windows);

  bool ok() const { return read_result_.error.empty(); }
  const WindowLogReadResult& read_result() const { return read_result_; }
  size_t num_windows() const { return windows_.size(); }
  const SealedWindow& window(size_t i) const { return windows_[i]; }
  const std::vector<SealedWindow>& windows() const { return windows_; }

  // ---- Timeline and episode queries over the window-end diagnoses ------------------------
  // `last_n` == 0 means the whole retained range; otherwise the newest N windows.

  struct TimelinePoint {
    uint64_t window_index = 0;
    bool suspected = false;
    double estimated_loss_rate = 0.0;
    double hit_ratio = 0.0;
    int64_t explained_losses = 0;
  };
  std::vector<TimelinePoint> LinkTimeline(LinkId link, size_t last_n = 0) const;

  // Maximal runs of consecutive retained windows naming `link` suspect at window end.
  struct Episode {
    uint64_t first_window = 0;
    uint64_t last_window = 0;
    size_t windows = 0;
    double max_estimated_loss_rate = 0.0;
  };
  std::vector<Episode> LinkEpisodes(LinkId link, size_t last_n = 0) const;

  // Every link named suspect in the range, most-named first.
  struct LinkActivity {
    LinkId link = kInvalidLink;
    size_t windows_suspected = 0;
    double max_estimated_loss_rate = 0.0;
    uint64_t first_window = 0;
    uint64_t last_window = 0;
  };
  std::vector<LinkActivity> TopLinks(size_t last_n = 0) const;

  // Suspect activity rolled up by rack: a link that touches a ToR is charged to that ToR (the
  // rack it serves); higher-tier links are charged to their pod ("pod-N"), pod-less links to
  // "core". The answer to "which racks flapped".
  struct RackActivity {
    std::string rack;
    size_t windows_suspected = 0;
    size_t distinct_links = 0;
  };
  std::vector<RackActivity> RackTimeline(const Topology& topo, size_t last_n = 0) const;

  // ---- Anomaly-plane queries (PR 10) -----------------------------------------------------
  // Anomalies are logged per boundary; these roll them up per window — a window counts as
  // flagged for a link when any of its boundaries named the link.

  struct AnomalyPoint {
    uint64_t window_index = 0;
    bool flagged = false;
    uint8_t signal = 0;       // OR of the kAnomalySignal* bits across the window's boundaries
    double max_score = 0.0;
    int32_t max_sustained = 0;
    size_t boundaries_flagged = 0;  // boundaries of this window naming the link
  };
  std::vector<AnomalyPoint> LinkAnomalyTimeline(LinkId link, size_t last_n = 0) const;

  // Every link any boundary in the range flagged, most-flagged-windows first.
  struct AnomalyActivity {
    LinkId link = kInvalidLink;
    size_t windows_flagged = 0;
    uint8_t signal = 0;  // OR of the signals across the range
    double max_score = 0.0;
    int32_t max_sustained = 0;
    uint64_t first_window = 0;
    uint64_t last_window = 0;
  };
  std::vector<AnomalyActivity> TopAnomalies(size_t last_n = 0) const;

  // ---- Replay ----------------------------------------------------------------------------
  // Feeds windows [first, first + count) back through a fresh non-consuming Diagnoser built
  // from `options`: per logged boundary, the boundary's deltas are ingested into the store
  // and the cumulative view the live system seals diagnoses over the reconstructed totals.
  // The probe matrix must be the one the log was recorded against (both halves build it
  // deterministically, like fleet_runner's agents and collectors do).
  std::vector<ReplayedWindow> Replay(const Topology& topo, const ProbeMatrix& matrix,
                                     const ReplayOptions& options, size_t first = 0,
                                     size_t count = std::numeric_limits<size_t>::max()) const;

 private:
  size_t FirstOfLastN(size_t last_n) const {
    return (last_n == 0 || last_n >= windows_.size()) ? 0 : windows_.size() - last_n;
  }
  // The window-end diagnosis is the final boundary's (every sealed window has at least one).
  static const SealedBoundary* FinalBoundary(const SealedWindow& w) {
    return w.boundaries.empty() ? nullptr : &w.boundaries.back();
  }

  std::vector<SealedWindow> windows_;
  WindowLogReadResult read_result_;
};

}  // namespace detector

#endif  // SRC_HISTORY_QUERY_H_
