#include "src/detector/diagnoser.h"

#include <algorithm>

namespace detector {

void Diagnoser::DirtyAccum::Merge(const ObservationStore::DirtySlots& taken) {
  if (all) {
    return;
  }
  if (taken.all) {
    Reset(/*to_all=*/true);
    return;
  }
  for (const PathId slot : taken.slots) {
    Add(static_cast<size_t>(slot));
  }
}

void Diagnoser::DirtyAccum::Add(size_t slot) {
  if (all) {
    return;
  }
  if (slot >= mark.size()) {
    mark.resize(slot + 1, 0);
  }
  if (!mark[slot]) {
    mark[slot] = 1;
    slots.push_back(static_cast<PathId>(slot));
  }
}

void Diagnoser::DirtyAccum::Reset(bool to_all) {
  all = to_all;
  for (const PathId slot : slots) {
    mark[static_cast<size_t>(slot)] = 0;
  }
  slots.clear();
}

void Diagnoser::Ingest(const PingerWindowResult& window) {
  PathId max_slot = -1;
  for (const PathReport& report : window.reports) {
    max_slot = std::max(max_slot, report.path_id);
  }
  if (max_slot >= 0) {
    store_.EnsureSlots(static_cast<size_t>(max_slot) + 1);
  }
  ObservationStore::Shard& shard = store_.OpenShard(window.pinger);
  for (const PathReport& report : window.reports) {
    if (report.path_id == PinglistEntry::kIntraRackPath) {
      shard.RecordIntraRack(report.target, report.sent, report.lost);
    } else if (report.path_id >= 0) {
      shard.RecordPath(report.path_id, report.target, report.sent, report.lost);
    }
  }
}

void Diagnoser::InvalidateLocalizeCache() {
  running_state_.structure_valid = false;
  trailing_state_.structure_valid = false;
  running_dirty_.Reset(/*to_all=*/true);
  trailing_dirty_.Reset(/*to_all=*/true);
}

std::vector<ServerLinkAlarm> Diagnoser::ServerLinkAlarms(const Watchdog& watchdog) const {
  std::vector<ServerLinkAlarm> alarms;
  store_.ForEachIntraRack(watchdog, [&](const IntraRackObservation& record) {
    const PathObservation totals{record.sent, record.lost};
    if (IsLossyPath(totals, options_.preprocess)) {
      alarms.push_back(ServerLinkAlarm{record.pinger, record.target, totals.LossRatio()});
    }
  });
  return alarms;
}

ObservationView Diagnoser::RefreshTotals(const ProbeMatrix& matrix, const Watchdog& watchdog,
                                         ObservationStore::DirtySlots* taken) {
  const ObservationView view = store_.RunningTotals(matrix.NumPaths(), watchdog);
  ObservationStore::DirtySlots dirty = store_.TakeDirtySlots();
  running_dirty_.Merge(dirty);
  if (taken != nullptr) {
    *taken = std::move(dirty);
  }
  return view;
}

void Diagnoser::AdvanceSegment(const ProbeMatrix& matrix, const Watchdog& watchdog) {
  ObservationStore::DirtySlots segment_dirty;
  const ObservationView view = RefreshTotals(matrix, watchdog, &segment_dirty);
  const size_t num_slots = view.size();
  if (sliding_segments_ <= 0) {
    return;
  }
  GrowTrailing(num_slots);

  // Watchdog flips adjust the running totals without an epoch bump, and a retraction is not
  // probe traffic: pushed as a delta it would ride the ring as transiently negative (sent,
  // lost) sums that preprocessing must treat as unusable. Restart flipped slots instead —
  // purge their ring history and re-cut the boundary at the adjusted totals — so the trailing
  // view resumes from the flip carrying real traffic only.
  std::vector<uint8_t> flipped_mark;
  if (!segment_dirty.watchdog_flipped.empty()) {
    flipped_mark.resize(num_slots, 0);
    for (const PathId slot : segment_dirty.watchdog_flipped) {
      if (slot >= 0 && static_cast<size_t>(slot) < num_slots) {
        flipped_mark[static_cast<size_t>(slot)] = 1;
      }
    }
  }

  // The boundary's sparse delta: totals now minus totals at the previous boundary, nonzero
  // only on slots the store marked dirty this segment.
  std::vector<DeltaEntry> delta;
  auto fold_slot = [&](size_t slot) {
    const uint32_t epoch = store_.SlotEpoch(slot);
    if (!flipped_mark.empty() && flipped_mark[slot]) {
      PurgeRingEntries(slot);
      boundary_totals_[slot] = view[slot];
      boundary_epoch_[slot] = epoch;
      return;
    }
    if (epoch != boundary_epoch_[slot]) {
      // The slot was invalidated (and possibly reused by repair) since the last boundary:
      // the store zeroed its running total, so a plain totals-vs-boundary delta would mix
      // the retraction with the new occupant's counters and leave the trailing sum negative.
      // Every ring delta of the slot was cut under an older epoch: purge them all and cut this
      // delta against zero, so the trailing view sees exactly the new occupant's
      // observations — no blind spot.
      PurgeRingEntries(slot);
      boundary_totals_[slot] = PathObservation{};
      boundary_epoch_[slot] = epoch;
    }
    const int64_t d_sent = view[slot].sent - boundary_totals_[slot].sent;
    const int64_t d_lost = view[slot].lost - boundary_totals_[slot].lost;
    if (d_sent != 0 || d_lost != 0) {
      delta.push_back(DeltaEntry{static_cast<PathId>(slot), d_sent, d_lost});
      boundary_totals_[slot] = view[slot];
    }
  };
  if (segment_dirty.all) {
    for (size_t slot = 0; slot < num_slots; ++slot) {
      fold_slot(slot);
    }
  } else {
    for (const PathId slot : segment_dirty.slots) {
      if (slot >= 0 && static_cast<size_t>(slot) < num_slots) {
        fold_slot(static_cast<size_t>(slot));
      }
    }
  }

  for (const DeltaEntry& entry : delta) {
    const size_t slot = static_cast<size_t>(entry.slot);
    trailing_[slot].sent += entry.sent;
    trailing_[slot].lost += entry.lost;
    trailing_dirty_.Add(slot);
  }
  ring_.push_back(std::move(delta));
  if (static_cast<int>(ring_.size()) > sliding_segments_) {
    for (const DeltaEntry& entry : ring_.front()) {
      const size_t slot = static_cast<size_t>(entry.slot);
      trailing_[slot].sent -= entry.sent;
      trailing_[slot].lost -= entry.lost;
      trailing_dirty_.Add(slot);
    }
    ring_.pop_front();
  }
}

void Diagnoser::PurgeRingEntries(size_t slot) {
  for (std::vector<DeltaEntry>& segment : ring_) {
    size_t kept = 0;
    for (const DeltaEntry& entry : segment) {
      if (static_cast<size_t>(entry.slot) == slot) {
        trailing_[slot].sent -= entry.sent;
        trailing_[slot].lost -= entry.lost;
        trailing_dirty_.Add(slot);
      } else {
        segment[kept++] = entry;
      }
    }
    segment.resize(kept);
  }
}

LocalizeResult Diagnoser::DiagnoseRunning(const ProbeMatrix& matrix, const Watchdog& watchdog) {
  const ObservationView view = RefreshTotals(matrix, watchdog, nullptr);
  LocalizeResult result = pll_.LocalizeIncremental(matrix, view, running_dirty_.slots,
                                                   running_dirty_.all, running_state_);
  running_dirty_.Reset(/*to_all=*/false);
  return result;
}

void Diagnoser::GrowTrailing(size_t num_slots) {
  if (trailing_.size() < num_slots) {
    boundary_totals_.resize(num_slots, PathObservation{});
    boundary_epoch_.resize(num_slots, 0);
    trailing_.resize(num_slots, PathObservation{});
  }
}

ObservationView Diagnoser::TrailingTotals(size_t num_slots) {
  GrowTrailing(num_slots);
  return ObservationView(trailing_.data(), num_slots);
}

LocalizeResult Diagnoser::DiagnoseTrailing(const ProbeMatrix& matrix,
                                           const Watchdog& /*watchdog*/) {
  // The watchdog filter is already reflected in the totals the segment deltas were cut from.
  const size_t num_slots = matrix.NumPaths();
  GrowTrailing(num_slots);
  const ObservationView view(trailing_.data(), num_slots);
  LocalizeResult result = pll_.LocalizeIncremental(matrix, view, trailing_dirty_.slots,
                                                   trailing_dirty_.all, trailing_state_);
  trailing_dirty_.Reset(/*to_all=*/false);
  return result;
}

LocalizeResult Diagnoser::Diagnose(const ProbeMatrix& matrix, const Watchdog& watchdog) {
  LocalizeResult result = DiagnoseRunning(matrix, watchdog);
  Clear();
  return result;
}

void Diagnoser::ResetWindowState() {
  running_dirty_.Reset(/*to_all=*/true);
  trailing_dirty_.Reset(/*to_all=*/true);
  ring_.clear();
  boundary_totals_.assign(boundary_totals_.size(), PathObservation{});
  boundary_epoch_.assign(boundary_epoch_.size(), 0);  // store epochs reset with the window
  trailing_.assign(trailing_.size(), PathObservation{});
}

void Diagnoser::Clear() {
  store_.Clear();
  ResetWindowState();
}

}  // namespace detector
