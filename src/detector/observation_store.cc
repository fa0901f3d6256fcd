#include "src/detector/observation_store.h"

#include "src/common/check.h"

namespace detector {

void ObservationStore::Shard::RecordPath(PathId slot, NodeId target, int64_t sent,
                                         int64_t lost) {
  DCHECK(slot >= 0 && static_cast<size_t>(slot) < store_->slot_epoch_.size());
  paths_.push_back(PathRecord{slot, target, sent, lost,
                              store_->slot_epoch_[static_cast<size_t>(slot)]});
}

void ObservationStore::Shard::RecordPathAtEpoch(PathId slot, uint32_t epoch, NodeId target,
                                                int64_t sent, int64_t lost) {
  DCHECK(slot >= 0 && static_cast<size_t>(slot) < store_->slot_epoch_.size());
  paths_.push_back(PathRecord{slot, target, sent, lost, epoch});
}

int32_t ObservationStore::Shard::AppendRtt(int num_bins,
                                           std::span<const RttSketch::BinCount> bins) {
  DCHECK(num_bins > 0) << "record RTT-less paths via RecordPath";
  const int32_t rtt = static_cast<int32_t>(rtt_runs_.size());
  rtt_runs_.push_back(RttRun{static_cast<uint32_t>(rtt_bins_.size()),
                             static_cast<uint16_t>(bins.size()),
                             static_cast<uint16_t>(num_bins)});
  rtt_bins_.insert(rtt_bins_.end(), bins.begin(), bins.end());
  return rtt;
}

void ObservationStore::Shard::RecordPathWithRtt(PathId slot, NodeId target, int64_t sent,
                                                int64_t lost, const RttSketch& sketch) {
  DCHECK(slot >= 0 && static_cast<size_t>(slot) < store_->slot_epoch_.size());
  const int32_t rtt = AppendRtt(sketch.num_bins(), sketch.bins());
  paths_.push_back(PathRecord{slot, target, sent, lost,
                              store_->slot_epoch_[static_cast<size_t>(slot)], rtt});
}

void ObservationStore::Shard::RecordPathRttAtEpoch(PathId slot, uint32_t epoch, NodeId target,
                                                   int num_bins,
                                                   std::span<const RttSketch::BinCount> bins) {
  DCHECK(slot >= 0 && static_cast<size_t>(slot) < store_->slot_epoch_.size());
  const int32_t rtt = AppendRtt(num_bins, bins);
  paths_.push_back(PathRecord{slot, target, 0, 0, epoch, rtt});
}

void ObservationStore::Shard::RecordIntraRack(NodeId target, int64_t sent, int64_t lost) {
  // A pinger probes only its own rack, so the linear scan stays within a rack's servers.
  for (IntraRackObservation& record : intra_) {
    if (record.target == target) {
      record.sent += sent;
      record.lost += lost;
      return;
    }
  }
  intra_.push_back(IntraRackObservation{pinger_, target, sent, lost});
}

void ObservationStore::EnsureSlots(size_t num_slots) {
  if (num_slots > slot_epoch_.size()) {
    const size_t old_size = slot_epoch_.size();
    slot_epoch_.resize(num_slots, 0);
    running_.resize(num_slots, PathObservation{});
    if (!rtt_running_.empty()) {
      rtt_running_.resize(num_slots);
    }
    slot_dirty_.resize(num_slots, 0);
    slot_flipped_.resize(num_slots, 0);
    for (size_t slot = old_size; slot < num_slots; ++slot) {
      MarkDirty(slot);  // new slots enter the diagnosable domain: treat as changed
    }
  }
}

void ObservationStore::EnsureRttRunning() {
  if (rtt_running_.empty()) {
    rtt_running_.resize(slot_epoch_.size());
  }
}

void ObservationStore::MergeRtt(size_t slot, const Shard& shard, int32_t rtt, int sign) {
  EnsureRttRunning();
  const Shard::RttRun& run = shard.rtt_runs_[static_cast<size_t>(rtt)];
  rtt_running_[slot].Merge(shard.RttBins(run), run.num_bins, sign);
}

void ObservationStore::MarkDirty(size_t slot) {
  if (all_dirty_ || slot_dirty_[slot]) {
    return;
  }
  slot_dirty_[slot] = 1;
  dirty_slots_.push_back(static_cast<PathId>(slot));
}

void ObservationStore::MarkWatchdogFlipped(size_t slot) {
  if (slot_flipped_[slot]) {
    return;
  }
  slot_flipped_[slot] = 1;
  flipped_slots_.push_back(static_cast<PathId>(slot));
}

ObservationStore::DirtySlots ObservationStore::TakeDirtySlots() {
  DirtySlots taken;
  taken.all = all_dirty_;
  taken.slots = std::move(dirty_slots_);
  dirty_slots_.clear();
  for (const PathId slot : taken.slots) {
    slot_dirty_[static_cast<size_t>(slot)] = 0;
  }
  taken.watchdog_flipped = std::move(flipped_slots_);
  flipped_slots_.clear();
  for (const PathId slot : taken.watchdog_flipped) {
    slot_flipped_[static_cast<size_t>(slot)] = 0;
  }
  all_dirty_ = false;
  return taken;
}

ObservationStore::Shard& ObservationStore::OpenShard(NodeId pinger) {
  CHECK(pinger >= 0);
  const size_t p = static_cast<size_t>(pinger);
  if (p >= shard_of_pinger_.size()) {
    shard_of_pinger_.resize(p + 1);
  }
  std::unique_ptr<Shard>& shard = shard_of_pinger_[p];
  if (shard == nullptr) {
    shard.reset(new Shard(this, pinger));
  }
  if (!shard->open_) {
    shard->open_ = true;
    shards_.push_back(shard.get());
  }
  return *shard;
}

void ObservationStore::InvalidateSlots(std::span<const PathId> slots) {
  for (const PathId slot : slots) {
    if (slot >= 0 && static_cast<size_t>(slot) < slot_epoch_.size()) {
      // Every contribution in the running totals is from the current epoch, so the bump
      // retracts the whole slot by zeroing — no record scan. Unfolded records on the old epoch
      // are skipped at fold time by the epoch check.
      ++slot_epoch_[static_cast<size_t>(slot)];
      running_[static_cast<size_t>(slot)] = PathObservation{};
      if (static_cast<size_t>(slot) < rtt_running_.size()) {
        rtt_running_[static_cast<size_t>(slot)].Clear();
      }
      MarkDirty(static_cast<size_t>(slot));
    }
  }
}

void ObservationStore::AdjustForNode(NodeId node, int sign) {
  auto adjust = [&](const Shard& owner, const Shard::PathRecord& record) {
    const size_t slot = static_cast<size_t>(record.slot);
    if (record.epoch != slot_epoch_[slot]) {
      return;  // orphaned: never part of the running totals
    }
    running_[slot].sent += sign * record.sent;
    running_[slot].lost += sign * record.lost;
    if (record.rtt >= 0) {
      MergeRtt(slot, owner, record.rtt, sign);
    }
    MarkDirty(slot);
    MarkWatchdogFlipped(slot);
  };
  // Pinger role: the node's own shard, minus records excluded by a still-filtered target.
  const size_t p = static_cast<size_t>(node);
  if (node >= 0 && p < shard_of_pinger_.size() && shard_of_pinger_[p] != nullptr) {
    const Shard& shard = *shard_of_pinger_[p];
    for (size_t i = 0; i < shard.folded_; ++i) {
      const Shard::PathRecord& record = shard.paths_[i];
      // node itself is outside applied_down_ (caller contract), so this also admits
      // records whose target is the node.
      if (applied_down_.count(record.target) == 0) {
        adjust(shard, record);
      }
    }
  }
  // Target role: one scan of the other open shards' folded records for those towards the
  // node (its own shard was handled above), minus shards excluded by a still-filtered pinger.
  for (const Shard* shard : shards_) {
    if (shard->pinger_ == node || applied_down_.count(shard->pinger_) > 0) {
      continue;
    }
    for (size_t i = 0; i < shard->folded_; ++i) {
      if (shard->paths_[i].target == node) {
        adjust(*shard, shard->paths_[i]);
      }
    }
  }
}

void ObservationStore::FoldShard(Shard& shard) {
  const bool pinger_down = applied_down_.count(shard.pinger_) > 0;
  for (size_t i = shard.folded_; i < shard.paths_.size(); ++i) {
    const Shard::PathRecord& record = shard.paths_[i];
    const size_t slot = static_cast<size_t>(record.slot);
    if (!pinger_down && record.epoch == slot_epoch_[slot] &&
        applied_down_.count(record.target) == 0) {
      running_[slot].sent += record.sent;
      running_[slot].lost += record.lost;
      if (record.rtt >= 0) {
        MergeRtt(slot, shard, record.rtt, +1);
      }
      MarkDirty(slot);
    }
    // Filtered and orphaned records still count as folded: if their pinger/target later
    // recovers, AdjustForNode(+1) re-adds exactly the ones whose epoch is still current.
  }
  shard.folded_ = shard.paths_.size();
}

void ObservationStore::ReconcileWatchdog(const Watchdog& watchdog) {
  // Only nodes whose health flipped since the last call cost a record scan. The order nodes
  // are processed in cannot leak into the totals — integer sums, and each step adjusts
  // exactly the records whose contribution flips under the final down-set.
  std::vector<NodeId> back_up;
  for (const NodeId node : applied_down_) {
    if (watchdog.IsHealthy(node)) {
      back_up.push_back(node);
    }
  }
  for (const NodeId node : back_up) {
    applied_down_.erase(node);
    AdjustForNode(node, +1);
  }
  for (const NodeId node : watchdog.down()) {
    if (applied_down_.count(node) == 0) {
      AdjustForNode(node, -1);
      applied_down_.insert(node);
    }
  }
}

ObservationView ObservationStore::RunningTotals(size_t num_slots, const Watchdog& watchdog) {
  EnsureSlots(num_slots);
  ReconcileWatchdog(watchdog);
  for (Shard* shard : shards_) {
    FoldShard(*shard);
  }
  return ObservationView(running_.data(), num_slots);
}

void ObservationStore::Clear() {
  for (std::unique_ptr<Shard>& held : shard_of_pinger_) {
    if (held == nullptr) {
      continue;
    }
    if (!held->open_) {
      held.reset();
      continue;
    }
    Shard& shard = *held;
    shard.open_ = false;
    shard.paths_.clear();
    shard.rtt_runs_.clear();
    shard.rtt_bins_.clear();
    shard.intra_.clear();
    shard.folded_ = 0;
  }
  shards_.clear();
  slot_epoch_.assign(slot_epoch_.size(), 0);
  running_.assign(running_.size(), PathObservation{});
  // Emptied in place: each running sketch keeps its pair storage for the next window.
  for (RttSketch& sketch : rtt_running_) {
    sketch.Clear();
  }
  applied_down_.clear();
  all_dirty_ = true;
  dirty_slots_.clear();
  slot_dirty_.assign(slot_dirty_.size(), 0);
  flipped_slots_.clear();
  slot_flipped_.assign(slot_flipped_.size(), 0);
}

}  // namespace detector
