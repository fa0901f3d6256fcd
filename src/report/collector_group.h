// CollectorGroup: N collector instances fronting one diagnosis tier. Each collector owns a
// static partition of the pinger space (PartitionMap), so the N instances fold into disjoint
// shards of the single shared ObservationStore and can ingest fully in parallel — the
// partitioned counters merge by simply living in one store, no cross-collector barrier. The
// group fans window/boundary control out to every instance and rolls their stats up into one
// view; a frame that lands on the wrong instance is rejected-and-counted there, never folded.
#ifndef SRC_REPORT_COLLECTOR_GROUP_H_
#define SRC_REPORT_COLLECTOR_GROUP_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/detector/observation_store.h"
#include "src/report/collector.h"
#include "src/report/partition.h"

namespace detector {

struct CollectorGroupOptions {
  size_t num_collectors = 1;  // clamped >= 1
  CollectorOptions collector;  // per-instance queue capacity and ingest shards
};

class CollectorGroup {
 public:
  CollectorGroup(ObservationStore& store, PartitionMap map, CollectorGroupOptions options);

  size_t num_collectors() const { return collectors_.size(); }
  Collector& collector(size_t i) { return *collectors_[i]; }
  const Collector& collector(size_t i) const { return *collectors_[i]; }

  const PartitionMap& partition_map() const { return map_; }
  // The collector instance that owns `pinger` — agents route frames with this, identically
  // to the collectors' own ownership check.
  int RouteOf(NodeId pinger) const { return map_.RouteOf(pinger); }

  // Replaces the partition map after topology churn (pingers added/removed). Serial point —
  // no concurrent Offer/drain; queued frames are re-judged against the new map at fold time.
  void Repartition(PartitionMap map);

  // Fan-out control — each is a serial point, like the Collector calls they forward to.
  void BeginWindow(uint64_t window_id);
  void AdvanceBoundary();

  // Sum of all instances' stats. Serial point wrt concurrent drains.
  CollectorStats stats() const;

  // Union of every instance's stale-pinger report (partitions are disjoint), sorted. Serial
  // point wrt concurrent drains.
  std::vector<NodeId> StalePingers() const;

 private:
  PartitionMap map_;
  std::mutex store_open_mu_;  // shared OpenShard guard across all instances' fold lanes
  std::vector<std::unique_ptr<Collector>> collectors_;
};

}  // namespace detector

#endif  // SRC_REPORT_COLLECTOR_GROUP_H_
