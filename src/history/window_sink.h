// The retention seam (PR 9): ingest and retention are separate concerns. The probe/report
// planes *ingest* observations into the diagnoser's ObservationStore, which forgets everything
// at the window boundary (Diagnose() consumes the store). A WindowSink is where a window's
// state goes instead of evaporating: the window driver (src/detector/analyzer.h, under
// DetectorSystem and the deployed collectors alike) publishes one SealedWindow per
// aggregation window at its close, carrying everything needed to answer forensic queries
// later and to *replay* the window's diagnosis timeline offline:
//
//  - per-boundary sparse observation deltas (the change in the store's merged running totals
//    between consecutive diagnosis boundaries, watchdog filter already applied). Summing the
//    deltas through boundary k reconstructs the exact ObservationView the live cumulative
//    diagnosis localized over at k — which is what makes replay bit-identical;
//  - the diagnosis timeline (suspect links + server-link alarms at every boundary);
//  - epoch/churn metadata (slot count, churn events applied, dead links) and traffic totals.
//
// Deltas rather than totals: one window's totals are reconstructible from its deltas, but the
// per-boundary timeline is not reconstructible from window totals — and the deltas are what
// lets QueryEngine::Replay feed the window back through a fresh non-consuming Diagnoser at
// altered thresholds/views, boundary by boundary, as if it were live.
#ifndef SRC_HISTORY_WINDOW_SINK_H_
#define SRC_HISTORY_WINDOW_SINK_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/anomaly/anomaly_engine.h"
#include "src/detector/diagnoser.h"
#include "src/localize/localizer.h"
#include "src/localize/observations.h"

namespace detector {

// One slot's (sent, lost) change between consecutive logged boundaries. Deltas can be
// negative: a watchdog flip or a mid-window slot invalidation retracts totals, and the
// retraction must replay too or the reconstructed view diverges from the live one.
struct SealedDelta {
  PathId slot = -1;
  int64_t sent = 0;
  int64_t lost = 0;

  bool operator==(const SealedDelta&) const = default;
};

// One diagnosis boundary: the observation delta since the previous boundary and what the live
// diagnosis said there. The final boundary of every window is the window-end diagnosis.
struct SealedBoundary {
  int segment = 0;            // 1-based boundary index (== segments_per_window at window end)
  double time_seconds = 0.0;  // window-relative boundary time
  std::vector<SealedDelta> deltas;
  std::vector<SuspectLink> suspects;
  std::vector<ServerLinkAlarm> alarms;
  // Anomaly-plane alarms at this boundary (empty on pre-anomaly logs and loss-only runs) —
  // what --mode=query replays as the per-link anomaly timeline.
  std::vector<LinkAnomaly> anomalies;

  bool operator==(const SealedBoundary&) const = default;
};

struct SealedWindow {
  uint64_t window_index = 0;  // monotonic across the publishing run
  uint64_t num_slots = 0;     // probe-matrix slot-space size at window close
  uint64_t churn_events = 0;  // topology deltas applied inside this window
  uint64_t dead_links = 0;    // overlay dead links at window close
  int64_t probes_sent = 0;
  int64_t bytes_sent = 0;
  std::vector<SealedBoundary> boundaries;

  bool operator==(const SealedWindow&) const = default;
};

// Where sealed windows go. Implementations: WindowLogWriter (append-only on-disk retention,
// src/history/window_log.h) and test doubles. Called from the window driver's serial phase —
// implementations need no internal locking against the publisher.
class WindowSink {
 public:
  virtual ~WindowSink() = default;
  virtual void OnWindowSealed(const SealedWindow& window) = 0;
};

// Builds SealedWindows incrementally as a window runs: CutBoundary diffs the store's merged
// running totals against the previous boundary's, AttachDiagnosis fills in what the live
// diagnosis said there. Window drivers keep one sealer alive across windows: it keeps the
// pending window, each boundary's vectors and the dense-totals scratch from window to window,
// so sealing allocates only while a window outgrows the buffers of the ones before it.
class WindowSealer {
 public:
  void BeginWindow(uint64_t window_index) {
    // The closed window's boundaries go to the spares in reverse, so the next window's first
    // boundary — the widest delta, cut against zero — reuses the previous first one's buffers.
    while (!pending_.boundaries.empty()) {
      spare_.push_back(std::move(pending_.boundaries.back()));
      pending_.boundaries.pop_back();
    }
    pending_.window_index = window_index;
    pending_.num_slots = 0;
    pending_.churn_events = 0;
    pending_.dead_links = 0;
    pending_.probes_sent = 0;
    pending_.bytes_sent = 0;
    prev_totals_.clear();
  }

  // Cuts the boundary's sparse delta from the current merged totals view. Call at every
  // diagnosis boundary, *before* anything consumes the store (the window-end Diagnose clears
  // it). `totals` is ObservationStore::RunningTotals — watchdog filter already applied.
  void CutBoundary(int segment, double time_seconds, ObservationView totals) {
    const bool first = pending_.boundaries.empty();
    if (spare_.empty()) {
      pending_.boundaries.emplace_back();
    } else {
      pending_.boundaries.push_back(std::move(spare_.back()));
      spare_.pop_back();
    }
    SealedBoundary& boundary = pending_.boundaries.back();
    boundary.segment = segment;
    boundary.time_seconds = time_seconds;
    boundary.deltas.clear();
    boundary.suspects.clear();
    boundary.alarms.clear();
    boundary.anomalies.clear();
    if (prev_totals_.size() < totals.size()) {
      prev_totals_.resize(totals.size(), PathObservation{});
    }
    // First boundary of a window diffs against zero — nearly every probed slot changes.
    boundary.deltas.reserve(first ? totals.size() : 64);
    for (size_t slot = 0; slot < totals.size(); ++slot) {
      const int64_t d_sent = totals[slot].sent - prev_totals_[slot].sent;
      const int64_t d_lost = totals[slot].lost - prev_totals_[slot].lost;
      if (d_sent != 0 || d_lost != 0) {
        boundary.deltas.push_back(SealedDelta{static_cast<PathId>(slot), d_sent, d_lost});
        prev_totals_[slot] = totals[slot];
      }
    }
  }

  // Fills the most recent boundary's diagnosis. Separate from CutBoundary because at window
  // end the delta must be cut before Diagnose() (it clears the store) while the suspects only
  // exist after it.
  void AttachDiagnosis(std::span<const SuspectLink> suspects,
                       std::span<const ServerLinkAlarm> alarms) {
    if (pending_.boundaries.empty()) {
      return;
    }
    pending_.boundaries.back().suspects.assign(suspects.begin(), suspects.end());
    pending_.boundaries.back().alarms.assign(alarms.begin(), alarms.end());
  }

  // Fills the most recent boundary's anomaly-plane alarms (same discipline as
  // AttachDiagnosis; call with an empty span — or not at all — on loss-only runs).
  void AttachAnomalies(std::span<const LinkAnomaly> anomalies) {
    if (pending_.boundaries.empty()) {
      return;
    }
    pending_.boundaries.back().anomalies.assign(anomalies.begin(), anomalies.end());
  }

  // Seals the pending window and returns it, valid until the next BeginWindow.
  const SealedWindow& Finish(uint64_t num_slots, uint64_t churn_events, uint64_t dead_links,
                             int64_t probes_sent, int64_t bytes_sent) {
    pending_.num_slots = num_slots;
    pending_.churn_events = churn_events;
    pending_.dead_links = dead_links;
    pending_.probes_sent = probes_sent;
    pending_.bytes_sent = bytes_sent;
    return pending_;
  }

 private:
  SealedWindow pending_;
  std::vector<SealedBoundary> spare_;  // boundaries of closed windows, buffers kept
  Observations prev_totals_;           // dense totals at the previous boundary
};

}  // namespace detector

#endif  // SRC_HISTORY_WINDOW_SINK_H_
