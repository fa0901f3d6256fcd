// Collector: the analyzer-side half of the report plane. Each raw frame is folded on receipt:
// Offer decodes it, authenticates it and checks its partition, then either drops-and-counts it
// or folds its records into the pinger's ObservationStore shard before it returns. PumpFrom
// offers everything a transport has pending. One thread receives and folds, so each pinger's
// frames fold first-in, first-out.
//
// Delivery tolerance, in line with what a real report network does to frames:
//  - corrupted / truncated: ReportCodec rejects the frame before any record is touched —
//    a frame folds whole or not at all;
//  - duplicated: frames are idempotent by (pinger, window, seq); a re-delivery is counted
//    and discarded, so totals stay bit-identical to exactly-once delivery;
//  - reordered: folding is order-independent (integer sums; epoch stamps ride each record),
//    so any arrival order of a window's frames produces the same totals;
//  - delayed past its window: a frame whose window_id predates the current window is stale
//    and discarded — its observations aggregated nowhere rather than into the wrong window;
//  - dropped: simply never arrives; the window diagnoses on what did;
//  - misrouted: with a partition installed, a frame whose pinger another collector owns is
//    rejected-and-counted, never folded — the fabric cannot double-count.
//
// Threading contract: none of it is thread-safe. One thread at a time drives a collector —
// DetectorSystem's ingest pump task during a segment's parallel phase and its segment loop
// around it, or Analyzer::Serve. A collector opens store shards through the store it shares
// with its CollectorGroup siblings, so the whole group has one driver at a time.
#ifndef SRC_REPORT_COLLECTOR_H_
#define SRC_REPORT_COLLECTOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "src/anomaly/rtt_sketch.h"
#include "src/detector/observation_store.h"
#include "src/net/transport.h"
#include "src/report/codec.h"
#include "src/report/partition.h"

namespace detector {

struct CollectorOptions {
  // Held unread for perfbench/, which sets it, until the benchmark's next change: a collector
  // folds every frame on one lane.
  size_t ingest_shards = 1;
  ReportKey key;  // frame-authentication key (must match the emitters')
  // RTT sketch bin count of this deployment (DetectorSystemOptions::rtt_bins). Every sketch
  // folded into one slot merges into one running sketch, so an RTT record with any other
  // bin count — an agent on another setting during a rollout — is skipped and counted.
  int rtt_bins = RttSketch::kDefaultBins;
  // Liveness ticks of silence (the clock advances at every window open — BeginWindow or a
  // frame-driven flip — and every segment boundary) after which a known pinger counts as
  // stale. 0 disables the stale flagging; last-seen tracking itself always runs.
  uint64_t liveness_horizon = 0;
};

struct CollectorStats {
  uint64_t frames_folded = 0;
  uint64_t observations_folded = 0;
  uint64_t duplicates_dropped = 0;      // (pinger, window, seq) already folded
  uint64_t decode_errors = 0;           // CRC mismatches, truncation, malformed frames
  uint64_t tampered_dropped = 0;        // CRC-clean frames failing the keyed-tag verify
  uint64_t stale_window_dropped = 0;    // frame.window_id older than the current window
  // Always 0: a collector queues nothing. Held for perfbench/, which sums it, until the
  // benchmark's next change.
  uint64_t queue_overflow_dropped = 0;
  uint64_t unknown_slot_dropped = 0;    // records beyond the store's slot table (skipped)
  uint64_t unknown_records = 0;         // ext records of a type this build doesn't know (skipped)
  uint64_t rtt_bins_mismatched = 0;     // RTT records whose bin count isn't rtt_bins (skipped)
  uint64_t wrong_partition_dropped = 0; // frame's pinger is owned by another collector
  uint64_t window_advances = 0;         // frame-driven window flips
  uint64_t pingers_tracked = 0;         // gauge: pingers with liveness state (ever heard)
  uint64_t stale_pingers = 0;           // gauge: tracked pingers silent past the horizon

  // Field-wise sum — how collectors roll up into a group.
  CollectorStats& operator+=(const CollectorStats& other);
};

// Last authenticated word from one pinger: the newest (window, seq) decoded from it and the
// liveness-clock tick it arrived at. A pinger whose tick falls `liveness_horizon` behind the
// clock is stale — a silent agent is an alarm, not a blind spot.
struct PingerLiveness {
  uint64_t window = 0;
  uint64_t seq = 0;
  uint64_t tick = 0;
};

class Collector {
 public:
  explicit Collector(ObservationStore& store, CollectorOptions options = {});

  // Opens aggregation window `window_id`: later frames carrying an older id are stale.
  // Dedup state of closed windows is pruned here.
  void BeginWindow(uint64_t window_id);
  uint64_t current_window() const { return current_window_; }

  // Called just before a frame of a newer window opens that window — Analyzer::Serve hooks
  // this to close (diagnose-and-clear) the finished window. Without a hook the collector just
  // advances.
  void set_on_window_advance(std::function<void(uint64_t closed, uint64_t opened)> hook) {
    on_window_advance_ = std::move(hook);
  }

  // Installs partition ownership: frames whose pinger `map` routes to a partition other than
  // `partition` are rejected-and-counted. `map` must outlive the collector (or the next
  // SetPartition); nullptr clears the check.
  void SetPartition(const PartitionMap* map, int partition);

  // Decodes one raw frame and folds it, or drops it and counts why. An authenticated frame
  // this collector owns that carries a newer window first flips the collector to it (the
  // window-advance hook, then BeginWindow); any authenticated frame it owns refreshes its
  // pinger's liveness. True iff the frame folded.
  bool Offer(std::span<const uint8_t> frame);

  // Offers every frame the transport has pending. Returns frames folded.
  size_t PumpFrom(Transport& transport);

  // Ticks the liveness clock at a segment boundary (see CollectorOptions::liveness_horizon).
  void AdvanceBoundary() { ++liveness_clock_; }

  // Counters, with the liveness gauges computed against the current clock.
  CollectorStats stats() const;

  // Pingers this collector has heard from (any authenticated frame it owns, including
  // duplicates and stale-window arrivals) whose last word is more than liveness_horizon
  // ticks old — sorted, empty when the horizon is 0.
  std::vector<NodeId> StalePingers() const;
  uint64_t liveness_clock() const { return liveness_clock_; }

 private:
  bool IsStale(const PingerLiveness& live) const {
    return options_.liveness_horizon > 0 &&
           liveness_clock_ - live.tick > options_.liveness_horizon;
  }
  // Folds a decoded frame; its RTT records' bins are copied into the store shard's arena.
  void FoldFrame(const ReportFrame& frame);

  ObservationStore& store_;
  const CollectorOptions options_;

  uint64_t current_window_ = 0;
  // Monotonic liveness clock: ticks at every window open (BeginWindow or a frame-driven flip)
  // and every AdvanceBoundary. Never reset.
  uint64_t liveness_clock_ = 0;
  std::function<void(uint64_t, uint64_t)> on_window_advance_;

  const PartitionMap* partition_map_ = nullptr;
  int partition_ = 0;

  // Folded frame seqs per pinger for the current window — the idempotence filter. Pruned at
  // window opens; seq ranges are small (frames per pinger per window).
  std::map<NodeId, std::set<uint64_t>> folded_seqs_;
  // Per-pinger liveness. NOT pruned at window opens — silence is precisely what it must
  // remember across windows.
  std::map<NodeId, PingerLiveness> last_seen_;
  CollectorStats stats_;
  // Decode parses into `decode_scratch_` and swaps it with `decoded_` on success, so both
  // keep their buffers from frame to frame.
  ReportFrame decoded_;
  ReportFrame decode_scratch_;
};

}  // namespace detector

#endif  // SRC_REPORT_COLLECTOR_H_
