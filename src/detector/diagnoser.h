// Diagnoser (§3.1): consumes the window's ObservationStore — per-pinger shards streamed in by
// the probe plane (or Ingest'ed as whole reports by callers without a shard runtime), merges
// replicas (a path is probed by >= 2 pingers), discards records from servers the watchdog
// flagged, and runs PLL over a zero-copy view of the store's running totals. Diagnose()
// consumes the window; the continuous-diagnosis entry points read the same totals mid-window
// at segment cadence without consuming anything:
//
//  - DiagnoseRunning(): incremental PLL over the whole accumulated window. The store's
//    dirty-slot tracker names the matrix slots whose totals changed since the last boundary;
//    only the components of the PLL partition containing a dirty slot are re-scored, the rest
//    reuse their cached verdicts — bit-identical to one-shot PLL over the same totals
//    (ctest-gated against tests/pll_reference.h), at O(dirty components) instead of O(matrix)
//    per boundary. Diagnose() closes the window through this same cumulative state: a batch
//    window re-scores from all-dirty, a streaming window reuses the verdicts its mid-window
//    boundaries cached.
//  - AdvanceSegment() + DiagnoseTrailing(): the sliding-segment view. AdvanceSegment, called
//    at every segment boundary, turns the boundary's dirty slots into a sparse per-segment
//    (sent, lost) delta, pushes it into a ring of the trailing `sliding_segments` deltas, and
//    maintains their running sum; DiagnoseTrailing localizes over that trailing sum — so a
//    loss episode that appears *and clears* inside one window stands out instead of being
//    diluted into the whole-window totals. Also incremental (its own PLL state, dirtied by
//    delta pushes and ring evictions).
//
// Also judges the window's intra-rack probe totals for server-link alarms.
#ifndef SRC_DETECTOR_DIAGNOSER_H_
#define SRC_DETECTOR_DIAGNOSER_H_

#include <deque>
#include <span>
#include <vector>

#include "src/common/check.h"
#include "src/detector/observation_store.h"
#include "src/detector/pinger.h"
#include "src/localize/pll.h"
#include "src/sim/watchdog.h"

namespace detector {

struct ServerLinkAlarm {
  NodeId pinger = kInvalidNode;
  NodeId target = kInvalidNode;
  double loss_ratio = 0.0;

  // Exact comparison, like SuspectLink: used by the bit-exactness gates.
  bool operator==(const ServerLinkAlarm&) const = default;
};

class Diagnoser {
 public:
  explicit Diagnoser(PllOptions options = PllOptions{}) : pll_(options), options_(options) {}

  // The accumulation buffer the probe plane streams into (one shard per pinger).
  ObservationStore& store() { return store_; }
  const ObservationStore& store() const { return store_; }

  // Sliding-segment window width, in segments (0 disables the ring; then AdvanceSegment only
  // feeds the cumulative dirty set and DiagnoseTrailing degenerates to empty observations).
  void set_sliding_segments(int segments) { sliding_segments_ = segments < 0 ? 0 : segments; }
  // Held only for perfbench/traced_pipeline.cc, which switches the deleted decay view off
  // through these two calls, until its traced copy is deleted (ROADMAP item 5): "off" is the
  // only value either accepts.
  void set_decay_factor(double factor) { CHECK(factor <= 0.0); }
  void set_decay_quantized(bool quantized) { CHECK(!quantized); }

  // Bulk ingestion of a finished pinger report into the store — the non-streaming path used by
  // standalone pingers and tests.
  void Ingest(const PingerWindowResult& window);

  // Orphans buffered counters for the given matrix slots. Called when a mid-window topology
  // delta removes paths: their slots may be reused by repair within the same window, and the
  // final matrix no longer carries the dropped path, so stale counters would otherwise be
  // attributed to the slot's new occupant at Diagnose time.
  void DropReports(std::span<const PathId> paths) { store_.InvalidateSlots(paths); }

  // Drops the cached PLL partitions and component verdicts. Must be called whenever the probe
  // matrix changes structurally (incremental repair rewires slots, RecomputeCycle rebuilds):
  // the partition is keyed to the matrix, and slot reuse preserves dimensions, so the caches
  // cannot detect staleness themselves. The next diagnosis rebuilds and re-scores everything.
  void InvalidateLocalizeCache();

  // Intra-rack (server-link) losses above the preprocessing thresholds: one alarm per
  // (pinger, target) whose window totals so far are lossy under IsLossyPath.
  std::vector<ServerLinkAlarm> ServerLinkAlarms(const Watchdog& watchdog) const;

  // Segment-boundary bookkeeping for the streaming views: folds the boundary's dirty slots
  // into the pending cumulative dirty set and (when enabled) advances the sliding ring by one
  // segment. Call exactly once per segment boundary, before any
  // boundary diagnosis. O(slots changed this segment).
  void AdvanceSegment(const ProbeMatrix& matrix, const Watchdog& watchdog);

  // Streaming diagnosis (segment cadence): incremental PLL over the store's maintained
  // running totals without consuming the window — accumulation continues and a later
  // Diagnose() sees everything. Cost per call is O(records since the last serial read + dirty
  // components), not a full dense rebuild plus a full PLL pass.
  LocalizeResult DiagnoseRunning(const ProbeMatrix& matrix, const Watchdog& watchdog);

  // Localizes over the trailing sliding-window segment deltas (see AdvanceSegment).
  // Non-consuming. A mid-window invalidation (the slot's epoch moved since the last boundary)
  // purges the slot's ring deltas outright, so a repaired-and-reused slot is diagnosable from
  // its first post-repair segment instead of being blinded for up to W segments. Watchdog
  // flips retract without an epoch bump; AdvanceSegment restarts flipped slots (purges their
  // ring history and re-cuts the boundary at the adjusted totals), so the trailing sums never
  // go transiently negative — the slot resumes from the flip with real traffic only.
  LocalizeResult DiagnoseTrailing(const ProbeMatrix& matrix, const Watchdog& watchdog);

  // Zero-copy view over the trailing sliding-window totals (the ring's delta sum) that
  // DiagnoseTrailing localizes — test/bench visibility into ring health, e.g. the invariant
  // that watchdog flips never leave negative (sent, lost) sums. Valid until the next
  // AdvanceSegment/Clear.
  ObservationView TrailingTotals(size_t num_slots);

  // DiagnoseRunning on everything accumulated since the last call, then clears the buffer (and
  // all per-window streaming state: pending dirty sets, sliding ring). The
  // cumulative verdict cache is exact at every boundary, so a window's final diagnosis is
  // bit-identical whether or not mid-window diagnoses were taken.
  LocalizeResult Diagnose(const ProbeMatrix& matrix, const Watchdog& watchdog);

  void Clear();

 private:
  // Dedup'ed accumulator for dirty slots across segment boundaries between diagnoses.
  struct DirtyAccum {
    bool all = true;  // until first taken: everything dirty
    std::vector<uint8_t> mark;
    std::vector<PathId> slots;

    void Merge(const ObservationStore::DirtySlots& taken);
    void Add(size_t slot);
    void Reset(bool to_all);
  };
  struct DeltaEntry {
    PathId slot;
    int64_t sent;
    int64_t lost;
  };

  // Drops accumulated per-window view state (ring, trailing totals, pending dirty).
  void ResetWindowState();
  // RunningTotals + TakeDirtySlots, merged into the cumulative pending set; returns the view.
  ObservationView RefreshTotals(const ProbeMatrix& matrix, const Watchdog& watchdog,
                                ObservationStore::DirtySlots* taken);

  PllLocalizer pll_;
  PllOptions options_;
  ObservationStore store_;

  // Incremental cumulative diagnosis.
  PllIncrementalState running_state_;
  DirtyAccum running_dirty_;

  // Sliding-segment view. When a mid-window repair invalidates (and possibly reuses) a slot,
  // or a watchdog flip adjusts it, the slot's deltas are purged from the ring outright
  // instead of lingering as a negative retraction that would blind DiagnoseTrailing on the
  // slot for up to W segments.
  // Removes every ring entry of the slot, keeping the trailing sums consistent. On an epoch
  // move none can belong to the new epoch: every entry was cut at or before
  // boundary_epoch_[slot], a slot's epoch only rises within a window, and Clear empties the
  // ring when the store resets its epochs.
  void PurgeRingEntries(size_t slot);
  // Grows boundary_totals_, boundary_epoch_ and trailing_ together to cover num_slots — every
  // reader and writer of the trailing view sizes them here, so they never differ in length.
  void GrowTrailing(size_t num_slots);
  int sliding_segments_ = 0;
  std::deque<std::vector<DeltaEntry>> ring_;  // most recent sliding_segments_ segment deltas
  Observations boundary_totals_;              // running totals at the last AdvanceSegment
  std::vector<uint32_t> boundary_epoch_;      // slot epochs those totals were cut under —
                                              // how AdvanceSegment sees an epoch move
  Observations trailing_;                     // sum of the ring's deltas
  PllIncrementalState trailing_state_;
  DirtyAccum trailing_dirty_;
};

}  // namespace detector

#endif  // SRC_DETECTOR_DIAGNOSER_H_
