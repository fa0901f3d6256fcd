#include "src/report/collector.h"

namespace detector {

CollectorStats& CollectorStats::operator+=(const CollectorStats& other) {
  frames_folded += other.frames_folded;
  observations_folded += other.observations_folded;
  duplicates_dropped += other.duplicates_dropped;
  decode_errors += other.decode_errors;
  tampered_dropped += other.tampered_dropped;
  stale_window_dropped += other.stale_window_dropped;
  queue_overflow_dropped += other.queue_overflow_dropped;
  unknown_slot_dropped += other.unknown_slot_dropped;
  unknown_records += other.unknown_records;
  rtt_bins_mismatched += other.rtt_bins_mismatched;
  wrong_partition_dropped += other.wrong_partition_dropped;
  window_advances += other.window_advances;
  pingers_tracked += other.pingers_tracked;
  stale_pingers += other.stale_pingers;
  return *this;
}

Collector::Collector(ObservationStore& store, CollectorOptions options)
    : store_(store), options_(options) {}

void Collector::BeginWindow(uint64_t window_id) {
  current_window_ = window_id;
  ++liveness_clock_;
  folded_seqs_.clear();
}

void Collector::SetPartition(const PartitionMap* map, int partition) {
  partition_map_ = map;
  partition_ = partition;
}

bool Collector::Offer(std::span<const uint8_t> bytes) {
  const DecodeStatus status = ReportCodec::Decode(bytes, decoded_, decode_scratch_, options_.key);
  if (status != DecodeStatus::kOk) {
    // Tamper (CRC-clean, tag-failed) is an attack signal; everything else is damage.
    if (status == DecodeStatus::kBadAuth) {
      ++stats_.tampered_dropped;
    } else {
      ++stats_.decode_errors;
    }
    return false;
  }
  const ReportFrame& frame = decoded_;
  if (partition_map_ != nullptr && partition_map_->RouteOf(frame.pinger) != partition_) {
    // Another collector owns this pinger; folding here would double-count across the fabric
    // once the rightful owner folds the retransmission.
    ++stats_.wrong_partition_dropped;
    return false;
  }
  if (frame.window_id > current_window_) {
    // The reporters moved on to a newer window: close the finished one before this frame
    // opens the next.
    if (on_window_advance_ != nullptr) {
      on_window_advance_(current_window_, frame.window_id);
    }
    BeginWindow(frame.window_id);
    ++stats_.window_advances;
  }
  // Any authenticated frame from a pinger we own refreshes its liveness — even a duplicate or
  // a stale-window straggler proves the agent is alive. A flipping frame counts at the tick of
  // the window it opened.
  PingerLiveness& live = last_seen_[frame.pinger];
  if (frame.window_id > live.window || (frame.window_id == live.window && frame.seq > live.seq)) {
    live.window = frame.window_id;
    live.seq = frame.seq;
  }
  live.tick = liveness_clock_;
  if (frame.window_id < current_window_) {
    ++stats_.stale_window_dropped;
    return false;
  }
  if (!folded_seqs_[frame.pinger].insert(frame.seq).second) {
    ++stats_.duplicates_dropped;
    return false;
  }
  FoldFrame(frame);
  return true;
}

void Collector::FoldFrame(const ReportFrame& frame) {
  ObservationStore::Shard& store_shard = store_.OpenShard(frame.pinger);
  const size_t num_slots = store_.num_slots();
  for (const WirePathDelta& record : frame.paths) {
    if (record.slot < 0 || static_cast<size_t>(record.slot) >= num_slots) {
      // A structurally-valid frame from a reporter ahead of (or behind) our matrix build:
      // skip the record, keep the rest of the frame.
      ++stats_.unknown_slot_dropped;
      continue;
    }
    store_shard.RecordPathAtEpoch(record.slot, record.epoch, record.target, record.sent,
                                  record.lost);
    ++stats_.observations_folded;
  }
  for (const WireIntraDelta& record : frame.intra) {
    store_shard.RecordIntraRack(record.target, record.sent, record.lost);
    ++stats_.observations_folded;
  }
  for (const WireRttDelta& record : frame.rtt) {
    if (record.slot < 0 || static_cast<size_t>(record.slot) >= num_slots) {
      ++stats_.unknown_slot_dropped;
      continue;
    }
    if (record.num_bins != options_.rtt_bins) {
      // Merging it into the slot's running sketch would abort the diagnoser; the frame's loss
      // records above still fold.
      ++stats_.rtt_bins_mismatched;
      continue;
    }
    store_shard.RecordPathRttAtEpoch(record.slot, record.epoch, record.target, record.num_bins,
                                     frame.RttBins(record));
    ++stats_.observations_folded;
  }
  // Extension records the decoder skipped (newer emitter during a mixed-version rollout): the
  // frame's loss records folded above; only the unknown records are lost, and visibly so.
  stats_.unknown_records += frame.unknown_records;
  ++stats_.frames_folded;
}

size_t Collector::PumpFrom(Transport& transport) {
  size_t folded = 0;
  std::vector<uint8_t> frame;
  while (transport.Receive(frame)) {
    if (Offer(frame)) {
      ++folded;
    }
  }
  return folded;
}

CollectorStats Collector::stats() const {
  CollectorStats total = stats_;
  total.pingers_tracked = last_seen_.size();
  for (const auto& [pinger, live] : last_seen_) {
    if (IsStale(live)) {
      ++total.stale_pingers;
    }
  }
  return total;
}

std::vector<NodeId> Collector::StalePingers() const {
  std::vector<NodeId> stale;
  for (const auto& [pinger, live] : last_seen_) {
    if (IsStale(live)) {
      stale.push_back(pinger);  // the map iterates in pinger order
    }
  }
  return stale;
}

}  // namespace detector
