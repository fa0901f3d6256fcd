// PartitionMap: the static ownership map of the collector fabric. Each pinger in the
// monitored fleet is owned by exactly one of N collector instances; agents route every frame
// by this map, and a collector rejects (and counts) frames whose pinger it does not own, so a
// misrouted frame can never double-fold into the store.
//
// The map is a pure function of (sorted pinger set, N): pingers are sorted, deduplicated, and
// dealt round-robin. Any two processes that agree on the pinger set — e.g. a fleet_runner
// agent and N fleet_runner collectors built from the same topology — derive the identical
// map with no coordination, and repartitioning after topology churn (pingers added or
// removed) is deterministic by construction. A pinger born mid-window that is not yet in the
// map routes by a hash fallback, identically on the agent and collector side.
#ifndef SRC_REPORT_PARTITION_H_
#define SRC_REPORT_PARTITION_H_

#include <cstddef>
#include <map>
#include <vector>

#include "src/topo/topology.h"

namespace detector {

class PartitionMap {
 public:
  PartitionMap() = default;

  // Builds the map: sort + dedup `pingers`, deal round-robin over `num_partitions` (clamped
  // to >= 1). Deterministic: same set + same N => same map, in any process.
  static PartitionMap Build(std::vector<NodeId> pingers, size_t num_partitions);

  size_t num_partitions() const { return num_partitions_; }
  size_t num_pingers() const { return map_.size(); }

  // The partition owning `pinger`, or -1 when the pinger is not in the map.
  int PartitionOf(NodeId pinger) const;

  // Like PartitionOf, but unmapped pingers route by hash — never -1. Agents and collectors
  // both use this, so a pinger missing from the map still lands on one agreed partition.
  int RouteOf(NodeId pinger) const;

  bool operator==(const PartitionMap&) const = default;

 private:
  size_t num_partitions_ = 1;
  std::map<NodeId, int> map_;
};

}  // namespace detector

#endif  // SRC_REPORT_PARTITION_H_
