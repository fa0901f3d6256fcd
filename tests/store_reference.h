// Test-only reference for the ObservationStore's running totals: Snapshot and RttSnapshot
// rebuild the merged per-slot counters and RTT sketches from every buffered record per call,
// O(records) each, under the watchdog and epoch filter; IntraRackObservations copies the
// window's intra-rack totals out under the watchdog filter. They share no code with the
// fold/retract machinery behind RunningTotals and RttRunningTotals, the store's one read
// path, so the exactness tests gate the running totals against them. A change to the filter
// rules must land here too; the gates trip loudly if the two drift.
#ifndef TESTS_STORE_REFERENCE_H_
#define TESTS_STORE_REFERENCE_H_

#include <vector>

#include "src/anomaly/rtt_sketch.h"
#include "src/detector/observation_store.h"
#include "src/localize/observations.h"
#include "src/sim/watchdog.h"

namespace detector {

// A friend of ObservationStore and ObservationStore::Shard, so it reads the buffered records.
class StoreReference {
 public:
  // Dense merged view over slots [0, num_slots): replica counters summed across shards, minus
  // records from watchdog-flagged pingers or towards watchdog-flagged targets, minus orphaned
  // epochs.
  static Observations Snapshot(const ObservationStore& store, size_t num_slots,
                               const Watchdog& watchdog);

  // The merged per-slot RTT sketches under the same watchdog/epoch filter.
  static std::vector<RttSketch> RttSnapshot(const ObservationStore& store, size_t num_slots,
                                            const Watchdog& watchdog);

  // The window's intra-rack totals, one per (pinger, target) (shard open order, first-seen
  // order within a shard), minus records from or towards watchdog-flagged servers.
  static std::vector<IntraRackObservation> IntraRackObservations(const ObservationStore& store,
                                                                 const Watchdog& watchdog);
};

inline Observations StoreReference::Snapshot(const ObservationStore& store, size_t num_slots,
                                             const Watchdog& watchdog) {
  Observations snapshot(num_slots);
  for (const auto& shard : store.shards_) {
    if (!watchdog.IsHealthy(shard->pinger_)) {
      continue;  // outlier removal (§5.1): a bad pinger fabricates losses everywhere
    }
    for (const auto& record : shard->paths_) {
      const size_t slot = static_cast<size_t>(record.slot);
      if (slot >= num_slots || record.epoch != store.slot_epoch_[slot]) {
        continue;  // beyond the matrix, or orphaned by a mid-window invalidation
      }
      if (!watchdog.IsHealthy(record.target)) {
        continue;
      }
      snapshot[slot].sent += record.sent;
      snapshot[slot].lost += record.lost;
    }
  }
  return snapshot;
}

inline std::vector<RttSketch> StoreReference::RttSnapshot(const ObservationStore& store,
                                                          size_t num_slots,
                                                          const Watchdog& watchdog) {
  std::vector<RttSketch> out(num_slots);
  for (const auto& shard : store.shards_) {
    if (!watchdog.IsHealthy(shard->pinger_)) {
      continue;
    }
    for (const auto& record : shard->paths_) {
      const size_t slot = static_cast<size_t>(record.slot);
      if (record.rtt < 0 || slot >= num_slots || record.epoch != store.slot_epoch_[slot] ||
          !watchdog.IsHealthy(record.target)) {
        continue;
      }
      const auto& run = shard->rtt_runs_[static_cast<size_t>(record.rtt)];
      out[slot].Merge(shard->RttBins(run), run.num_bins);
    }
  }
  return out;
}

inline std::vector<IntraRackObservation> StoreReference::IntraRackObservations(
    const ObservationStore& store, const Watchdog& watchdog) {
  std::vector<IntraRackObservation> out;
  for (const auto& shard : store.shards_) {
    if (!watchdog.IsHealthy(shard->pinger_)) {
      continue;
    }
    for (const IntraRackObservation& record : shard->intra_) {
      if (watchdog.IsHealthy(record.target)) {
        out.push_back(record);
      }
    }
  }
  return out;
}

}  // namespace detector

#endif  // TESTS_STORE_REFERENCE_H_
