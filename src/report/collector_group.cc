#include "src/report/collector_group.h"

#include <algorithm>
#include <utility>

namespace detector {

CollectorGroup::CollectorGroup(ObservationStore& store, PartitionMap map,
                               CollectorGroupOptions options)
    : map_(std::move(map)) {
  const size_t n = std::max<size_t>(1, options.num_collectors);
  collectors_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto collector = std::make_unique<Collector>(store, options.collector);
    collector->SetPartition(&map_, static_cast<int>(i));
    collectors_.push_back(std::move(collector));
  }
}

void CollectorGroup::Repartition(PartitionMap map) {
  map_ = std::move(map);
  // Collectors hold a pointer to map_, which is stable; re-install anyway so a partition
  // count mismatch (caller error) is at least consistent per instance.
  for (size_t i = 0; i < collectors_.size(); ++i) {
    collectors_[i]->SetPartition(&map_, static_cast<int>(i));
  }
}

void CollectorGroup::BeginWindow(uint64_t window_id) {
  for (auto& collector : collectors_) {
    collector->BeginWindow(window_id);
  }
}

void CollectorGroup::AdvanceBoundary() {
  for (auto& collector : collectors_) {
    collector->AdvanceBoundary();
  }
}

CollectorStats CollectorGroup::stats() const {
  CollectorStats total;
  for (const auto& collector : collectors_) {
    total += collector->stats();
  }
  return total;
}

std::vector<NodeId> CollectorGroup::StalePingers() const {
  std::vector<NodeId> stale;
  for (const auto& collector : collectors_) {
    const std::vector<NodeId> s = collector->StalePingers();
    stale.insert(stale.end(), s.begin(), s.end());
  }
  // Partitions are disjoint, so this is a merge, not a dedup.
  std::sort(stale.begin(), stale.end());
  return stale;
}

}  // namespace detector
