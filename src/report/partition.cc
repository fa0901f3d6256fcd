#include "src/report/partition.h"

#include <algorithm>
#include <cstdint>

namespace detector {
namespace {

// Multiplicative hash over a pinger id — fixed constants so every process spreads the same
// pinger the same way.
uint64_t PingerHash(NodeId pinger) {
  uint64_t h = static_cast<uint64_t>(static_cast<uint32_t>(pinger));
  h *= 0x9E3779B97F4A7C15ULL;  // golden-ratio multiplier
  return h >> 32;
}

}  // namespace

PartitionMap PartitionMap::Build(std::vector<NodeId> pingers, size_t num_partitions) {
  PartitionMap out;
  out.num_partitions_ = std::max<size_t>(1, num_partitions);
  std::sort(pingers.begin(), pingers.end());
  pingers.erase(std::unique(pingers.begin(), pingers.end()), pingers.end());
  int next = 0;
  for (const NodeId pinger : pingers) {
    out.map_.emplace(pinger, next);
    next = (next + 1) % static_cast<int>(out.num_partitions_);
  }
  return out;
}

int PartitionMap::PartitionOf(NodeId pinger) const {
  const auto it = map_.find(pinger);
  return it == map_.end() ? -1 : it->second;
}

int PartitionMap::RouteOf(NodeId pinger) const {
  const int mapped = PartitionOf(pinger);
  if (mapped >= 0) {
    return mapped;
  }
  return static_cast<int>(PingerHash(pinger) % num_partitions_);
}

}  // namespace detector
