// ObservationStore: streaming per-window observation accumulator behind the diagnoser. Each
// pinger shard owns one accumulation bucket and streams per-slot (sent, lost) counters into it
// as its probes run, so the window's observations build up incrementally instead of arriving
// as one monolithic batch at window end. Slots can be invalidated mid-window (epoch bump) when
// ApplyTopologyDelta vacates them, which orphans every counter already buffered on the slot in
// O(slots) without scanning the shards; a slot reused by repair within the same window starts
// a fresh epoch, so the new occupant's counters never mix with the stale ones.
//
// RunningTotals() is the dense read path: maintained running totals — each record is folded
// in exactly once, a slot invalidation retracts the slot's contribution in O(1) by zeroing it,
// and a watchdog flip retracts/re-adds only the flipped node's records, found with one scan of
// the window's folded records. This is what continuous per-segment diagnosis reads: a call
// costs O(new records since the last fold) plus one scan per watchdog flip, not O(all records
// in the window) every time. tests/store_reference.h rebuilds the same totals from every
// record as the oracle.
//
// Each record folds once, on the calling thread, under the filter last reconciled: either
// as soon as it is final (FoldShard — DetectorSystem folds a direct-mode shard once its
// worker finished it, and the records its collectors appended whenever a pump pass idles,
// while other shards still probe) or at the next serial read (RunningTotals, which reconciles
// the watchdog filter and then folds every shard's remaining records).
//
// Threading contract: OpenShard/EnsureSlots/InvalidateSlots/ReconcileWatchdog/RunningTotals
// run in serial phases; between them, each shard may be written by exactly one thread with no
// locking (shards never share mutable state, and slot epochs are only read during the parallel
// phase). FoldShard may also run during the parallel phase, on the thread that runs the serial
// phases, for a shard no other thread is writing: its writer finished and published its records
// to that thread (release/acquire), or that thread is its writer.
#ifndef SRC_DETECTOR_OBSERVATION_STORE_H_
#define SRC_DETECTOR_OBSERVATION_STORE_H_

#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "src/anomaly/rtt_sketch.h"
#include "src/localize/observations.h"
#include "src/routing/path_store.h"
#include "src/sim/watchdog.h"
#include "src/topo/topology.h"

namespace detector {

// One (pinger, target) intra-rack (server-link) probe total for the window so far; these live
// outside the slot space and are never invalidated by topology deltas (they age out when the
// window's buffer clears).
struct IntraRackObservation {
  NodeId pinger = kInvalidNode;
  NodeId target = kInvalidNode;
  int64_t sent = 0;
  int64_t lost = 0;
};

class ObservationStore {
 public:
  // Per-pinger accumulation bucket. Obtained via OpenShard; written by exactly one thread.
  class Shard {
   public:
    // Streams one probe-matrix observation. `slot` must be < the EnsureSlots bound; the record
    // is stamped with the slot's current epoch so a later invalidation orphans it.
    void RecordPath(PathId slot, NodeId target, int64_t sent, int64_t lost);
    // Streams one observation carrying an explicit epoch stamp — the report plane's fold path,
    // where the stamp is the epoch the emitter observed at probe time. A frame delivered
    // after the slot was invalidated therefore orphans exactly like a direct record written
    // before the invalidation would have.
    void RecordPathAtEpoch(PathId slot, uint32_t epoch, NodeId target, int64_t sent,
                           int64_t lost);
    // Streams one observation that also carries the path's RTT sample sketch (the anomaly
    // plane's direct-mode write). The sketch's bins are copied into the shard's bin arena and
    // ride on the same record, so epoch orphaning and watchdog retract/re-add apply to the
    // loss counters and the sketch together. Callers skip paths with no samples (empty
    // sketch) rather than recording an allocated-zero one.
    void RecordPathWithRtt(PathId slot, NodeId target, int64_t sent, int64_t lost,
                           const RttSketch& sketch);
    // RTT-only record with an explicit epoch stamp — the report plane's fold path for
    // extension records, whose loss counters travel in a separate wire record. `bins` are the
    // non-zero bins of a `num_bins`-bin sketch, ascending (a decoded frame's arena slice).
    void RecordPathRttAtEpoch(PathId slot, uint32_t epoch, NodeId target, int num_bins,
                              std::span<const RttSketch::BinCount> bins);
    // Streams one intra-rack (server-link) observation, added into the shard's one record for
    // `target` — created at the target's first observation, so records keep first-seen order.
    void RecordIntraRack(NodeId target, int64_t sent, int64_t lost);

    NodeId pinger() const { return pinger_; }

   private:
    friend class ObservationStore;
    friend class StoreReference;  // the test-only oracle (tests/store_reference.h)
    Shard(const ObservationStore* store, NodeId pinger) : store_(store), pinger_(pinger) {}

    struct PathRecord {
      PathId slot;
      NodeId target;
      int64_t sent;
      int64_t lost;
      uint32_t epoch;  // slot epoch at record time; stale when the slot was since invalidated
      int32_t rtt = -1;  // index into the shard's rtt_runs_, -1 when the record has none
    };
    // steady-k32 keeps 327,680 records per window: 8 more bytes would be +2.6 MB.
    static_assert(sizeof(PathRecord) == 32);

    // One record's RTT sketch: its non-zero bins, rtt_bins_[begin, begin + size), ascending.
    struct RttRun {
      uint32_t begin;
      uint16_t size;
      uint16_t num_bins;
    };
    static_assert(RttSketch::kMaxBins <= UINT16_MAX);

    // Appends one record's bins to the arena; returns its rtt_runs_ index.
    int32_t AppendRtt(int num_bins, std::span<const RttSketch::BinCount> bins);
    std::span<const RttSketch::BinCount> RttBins(const RttRun& run) const {
      return std::span<const RttSketch::BinCount>(rtt_bins_).subspan(run.begin, run.size);
    }

    const ObservationStore* store_;
    NodeId pinger_;
    bool open_ = false;  // opened since the last Clear(); idle shards hold no records
    std::vector<PathRecord> paths_;
    // Every RTT-carrying record's bins, back to back in record order: one arena per shard,
    // kept across windows like paths_, so a record's sketch is never a heap block of its own.
    std::vector<RttRun> rtt_runs_;  // referenced by PathRecord::rtt
    std::vector<RttSketch::BinCount> rtt_bins_;
    std::vector<IntraRackObservation> intra_;
    // Records below this index are reflected in the store's running totals (under the filter
    // and epochs applied at fold time); records at/after it are not folded yet.
    size_t folded_ = 0;
  };

  // Grows the slot-epoch table (and the running totals) to cover [0, num_slots). Serial phase
  // only: records may not be streamed for a slot the table does not cover yet.
  void EnsureSlots(size_t num_slots);

  // Returns the accumulation shard for `pinger` (>= 0), creating it on first use. A pinger
  // reopened in the window after a Clear() gets its shard back empty, with its buffers'
  // capacity kept. Serial phase only; the returned reference stays valid until Clear().
  Shard& OpenShard(NodeId pinger);

  // Orphans every buffered counter on the given slots (stale after a mid-window topology delta
  // vacated them) by bumping the slots' epochs and zeroing their running totals in O(1) per
  // slot. Counters recorded afterwards — the slot's next occupant — accumulate normally under
  // the new epoch. Serial phase only.
  void InvalidateSlots(std::span<const PathId> slots);

  // Maintained running dense totals over slots [0, num_slots): replica counters summed across
  // shards, minus records from watchdog-flagged pingers or towards watchdog-flagged targets,
  // minus orphaned epochs. Reconciles the watchdog filter (ReconcileWatchdog), folds every
  // shard's records not folded yet (FoldShard), and returns a zero-copy view over the totals.
  // Serial phase only; the view is valid until the next EnsureSlots (growth reallocates the
  // buffer the view aliases), InvalidateSlots, ReconcileWatchdog, FoldShard, RunningTotals or
  // Clear.
  ObservationView RunningTotals(size_t num_slots, const Watchdog& watchdog);

  // Brings the applied watchdog filter up to date: retracts the folded records of nodes
  // flagged since the last reconciliation and re-adds those of nodes that recovered, marking
  // their slots watchdog-flipped. Only the records folded so far are adjusted; later folds
  // apply the reconciled filter. Serial phase only; steady state costs nothing.
  void ReconcileWatchdog(const Watchdog& watchdog);

  // Folds `shard`'s records not folded yet into the running totals under the filter last
  // reconciled. May run while other shards are written (see the threading contract), so a
  // caller can fold each shard as soon as its writer finished.
  void FoldShard(Shard& shard);

  // Maintained running per-slot RTT sketches, kept by the same fold/retract machinery as the
  // loss totals (records carrying a sketch merge it when they fold, watchdog flips retract and
  // re-add it, slot invalidation resets it). Valid after the RunningTotals call that folded
  // the records. Lazily allocated: empty until the first sketch-carrying record folds, so
  // loss-only deployments pay nothing; slots beyond the span (or with an empty sketch) simply
  // accumulated no RTT samples.
  std::span<const RttSketch> RttRunningTotals() const { return rtt_running_; }

  // Visits the window's intra-rack totals, one per (pinger, target) (shard open order,
  // first-seen order within a shard), minus records from or towards watchdog-flagged
  // servers, in place. Serial phase only.
  template <typename Visit>
  void ForEachIntraRack(const Watchdog& watchdog, Visit&& visit) const {
    for (const Shard* shard : shards_) {
      if (!watchdog.IsHealthy(shard->pinger_)) {
        continue;
      }
      for (const IntraRackObservation& record : shard->intra_) {
        if (watchdog.IsHealthy(record.target)) {
          visit(record);
        }
      }
    }
  }

  // Slots whose running totals changed since the previous TakeDirtySlots call — folded
  // records, slot invalidations, watchdog retractions/re-adds, and table growth all mark their
  // slots. `all` short-circuits the list: everything must be treated as changed (initial
  // state, and after Clear). Consumed after RunningTotals at a diagnosis boundary, this is
  // exactly the dirty set incremental diagnosis needs; taking it resets the tracker. Serial
  // phase only.
  struct DirtySlots {
    bool all = false;
    std::vector<PathId> slots;  // unordered, duplicate-free
    // Slots whose running totals were adjusted by a watchdog health flip (retract on down,
    // re-add on recovery) since the previous take — changes with no epoch bump that are not
    // probe-time traffic. The diagnoser's sliding ring restarts these slots instead of
    // ingesting the adjustment as a (possibly negative) segment delta. Subset of the dirty
    // set; unordered, duplicate-free; tracked even while `all` is set.
    std::vector<PathId> watchdog_flipped;
  };
  DirtySlots TakeDirtySlots();

  // Empties every shard and resets all epochs and running totals (end of an aggregation
  // window). An emptied shard keeps its buffers for its pinger's next OpenShard; a shard its
  // pinger did not reopen since the previous Clear() is freed.
  void Clear();

  size_t num_slots() const { return slot_epoch_.size(); }
  size_t num_shards() const { return shards_.size(); }

  // Read-only view of the per-slot epochs, for report emitters stamping records with the
  // epoch current at probe time. Epochs mutate only at serial points, so the view may be read
  // during the parallel phase; it is invalidated by EnsureSlots growth and Clear.
  std::span<const uint32_t> slot_epochs() const { return slot_epoch_; }
  // Epoch of one slot (serial phase; slot must be < num_slots()). The diagnoser's sliding
  // ring sees a slot's mid-window invalidation through this.
  uint32_t SlotEpoch(size_t slot) const { return slot_epoch_[slot]; }

 private:
  friend class StoreReference;  // the test-only oracle (tests/store_reference.h)

  // Adds (`sign` = +1) or retracts (-1) the folded, current-epoch records involving `node`
  // whose other party is not filtered: its shard's records (found by pinger id), and the
  // records targeting it, found with one scan of the other open shards. The caller keeps
  // `node` itself out of applied_down_ while this runs so each record adjusts exactly once.
  void AdjustForNode(NodeId node, int sign);

  std::vector<Shard*> shards_;  // the window's open shards, in OpenShard order
  // Every shard held, indexed by pinger id: the window's open ones plus those idle since the
  // last Clear(). Null where no shard is held.
  std::vector<std::unique_ptr<Shard>> shard_of_pinger_;
  std::vector<uint32_t> slot_epoch_;
  // Running-totals state: running_[slot] always equals the sum of folded records whose epoch
  // is the slot's current one and whose pinger/target are outside applied_down_.
  Observations running_;
  // Running per-slot RTT sketches, parallel to running_ once allocated (first sketch fold).
  std::vector<RttSketch> rtt_running_;
  // Sizes rtt_running_ to the slot table on the first sketch-carrying fold/adjust.
  void EnsureRttRunning();
  // Folds (sign = +1) or retracts (-1) one record's RTT run into its slot's running sketch.
  void MergeRtt(size_t slot, const Shard& shard, int32_t rtt, int sign);
  std::set<NodeId> applied_down_;  // watchdog filter currently reflected in running_

  // Marks a slot's running total as changed since the last TakeDirtySlots. O(1), dedup'ed.
  void MarkDirty(size_t slot);
  // Marks a slot as adjusted by a watchdog flip — unlike MarkDirty this records even under
  // all_dirty_, because the consumer needs to know *which* dirty slots were flip-adjusted.
  void MarkWatchdogFlipped(size_t slot);
  bool all_dirty_ = true;             // nothing taken yet / Clear(): treat everything as changed
  std::vector<uint8_t> slot_dirty_;   // parallel to slot_epoch_
  std::vector<PathId> dirty_slots_;
  std::vector<uint8_t> slot_flipped_; // parallel to slot_epoch_
  std::vector<PathId> flipped_slots_;
};

}  // namespace detector

#endif  // SRC_DETECTOR_OBSERVATION_STORE_H_
