#include "src/report/collector.h"

#include <algorithm>
#include <utility>

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
    : store_(store), options_(options) {
  const size_t shards = std::max<size_t>(1, options_.ingest_shards);
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<IngestShard>());
  }
}

void Collector::BeginWindow(uint64_t window_id) {
  current_window_.store(window_id, std::memory_order_release);
  liveness_clock_.fetch_add(1, std::memory_order_acq_rel);
  for (auto& shard : shards_) {
    shard->folded_seqs.clear();
    // The diagnosis tier may have Clear()ed the store between windows — cached Shard
    // pointers do not survive that, so re-resolve lazily.
    shard->store_shards.clear();
    shard->has_pending = false;
  }
}

void Collector::SetPartition(const PartitionMap* map, int partition) {
  partition_map_ = map;
  partition_ = partition;
}

bool Collector::OfferToShard(size_t index, std::vector<uint8_t> frame, bool bounded) {
  IngestShard& shard = *shards_[index];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (bounded && shard.queue.size() >= options_.queue_capacity) {
    // Counted under the shard lock, so racing producers on a full shard each account their
    // own drop exactly once: folded + dropped == offered.
    ++shard.stats.queue_overflow_dropped;
    return false;
  }
  shard.queue.push_back(std::move(frame));
  return true;
}

bool Collector::Offer(std::vector<uint8_t> frame) {
  NodeId pinger = kInvalidNode;
  // Frames too damaged to peek route to shard 0, whose full Decode rejects-and-counts them.
  const size_t index =
      ReportCodec::PeekPinger(frame, pinger) ? IngestShardOf(pinger) : 0;
  return OfferToShard(index, std::move(frame), /*bounded=*/true);
}

void Collector::OfferUnbounded(std::vector<uint8_t> frame) {
  NodeId pinger = kInvalidNode;
  const size_t index =
      ReportCodec::PeekPinger(frame, pinger) ? IngestShardOf(pinger) : 0;
  OfferToShard(index, std::move(frame), /*bounded=*/false);
}

size_t Collector::DrainShard(IngestShard& shard) {
  size_t folded = 0;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      if (shard.has_pending || shard.queue.empty()) {
        return folded;
      }
      shard.raw = std::move(shard.queue.front());
      shard.queue.pop_front();
    }
    const DecodeStatus status =
        ReportCodec::Decode(shard.raw, shard.decoded, shard.decode_scratch, options_.key);
    if (status != DecodeStatus::kOk) {
      // Tamper (CRC-clean, tag-failed) is an attack signal; everything else is damage.
      if (status == DecodeStatus::kBadAuth) {
        ++shard.stats.tampered_dropped;
      } else {
        ++shard.stats.decode_errors;
      }
      continue;
    }
    if (partition_map_ != nullptr &&
        partition_map_->RouteOf(shard.decoded.pinger) != partition_) {
      // Another collector owns this pinger; folding here would double-count across the
      // fabric once the rightful owner folds the retransmission.
      ++shard.stats.wrong_partition_dropped;
      continue;
    }
    // Any authenticated frame from a pinger we own refreshes its liveness — even a duplicate
    // or a stale-window straggler proves the agent is alive.
    {
      PingerLiveness& live = shard.last_seen[shard.decoded.pinger];
      if (shard.decoded.window_id > live.window ||
          (shard.decoded.window_id == live.window && shard.decoded.seq > live.seq)) {
        live.window = shard.decoded.window_id;
        live.seq = shard.decoded.seq;
      }
      live.tick = liveness_clock_.load(std::memory_order_acquire);
    }
    const uint64_t window = current_window_.load(std::memory_order_acquire);
    if (shard.decoded.window_id < window) {
      ++shard.stats.stale_window_dropped;
      continue;
    }
    if (shard.decoded.window_id > window) {
      // The reporters moved on to a newer window. The flip itself (hook, dedup prune) is a
      // serial affair, so park the frame at the head and flag the advance for
      // AdvancePendingWindows; this shard stops until the flip lands.
      std::lock_guard<std::mutex> lock(shard.mu);
      if (!shard.has_pending || shard.decoded.window_id < shard.pending_window) {
        shard.pending_window = shard.decoded.window_id;
      }
      shard.has_pending = true;
      shard.queue.push_front(std::move(shard.raw));
      return folded;
    }
    auto& seen = shard.folded_seqs[shard.decoded.pinger];
    if (!seen.insert(shard.decoded.seq).second) {
      ++shard.stats.duplicates_dropped;
      continue;
    }
    FoldFrame(shard, shard.decoded);
    ++folded;
  }
}

size_t Collector::DrainShardRange(size_t begin, size_t end) {
  size_t folded = 0;
  for (size_t i = begin; i < end && i < shards_.size(); ++i) {
    folded += DrainShard(*shards_[i]);
  }
  return folded;
}

bool Collector::AdvancePendingWindows() {
  const uint64_t window = current_window_.load(std::memory_order_acquire);
  uint64_t next = 0;
  bool found = false;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    if (!shard->has_pending) {
      continue;
    }
    if (shard->pending_window <= window) {
      shard->has_pending = false;  // already reached (another shard advanced past it)
      continue;
    }
    if (!found || shard->pending_window < next) {
      next = shard->pending_window;
      found = true;
    }
  }
  if (!found) {
    return false;
  }
  if (on_window_advance_ != nullptr) {
    on_window_advance_(window, next);
  }
  current_window_.store(next, std::memory_order_release);
  liveness_clock_.fetch_add(1, std::memory_order_acq_rel);  // a window opens, like BeginWindow
  ++window_advances_;
  for (auto& shard : shards_) {
    shard->folded_seqs.clear();
    shard->store_shards.clear();  // the hook may have diagnosed-and-cleared the store
    std::lock_guard<std::mutex> lock(shard->mu);
    if (shard->has_pending && shard->pending_window <= next) {
      shard->has_pending = false;
    }
  }
  return true;
}

size_t Collector::Drain() {
  // A pass leaves every shard empty or parked on a newer window's frame; each flip unparks
  // the shards it reached.
  size_t folded = 0;
  do {
    folded += DrainShardRange(0, shards_.size());
  } while (AdvancePendingWindows());
  return folded;
}

void Collector::FoldFrame(IngestShard& shard, const ReportFrame& frame) {
  ObservationStore::Shard* store_shard = nullptr;
  const auto it = shard.store_shards.find(frame.pinger);
  if (it != shard.store_shards.end()) {
    store_shard = it->second;
  } else {
    // First frame from this pinger on this lane: OpenShard mutates the store's pinger map,
    // so all lanes (across the whole CollectorGroup) serialize their opens on one mutex.
    std::lock_guard<std::mutex> lock(*open_mu_);
    store_shard = &store_.OpenShard(frame.pinger);
    shard.store_shards.emplace(frame.pinger, store_shard);
  }
  const size_t num_slots = store_.num_slots();
  for (const WirePathDelta& record : frame.paths) {
    if (record.slot < 0 || static_cast<size_t>(record.slot) >= num_slots) {
      // A structurally-valid frame from a reporter ahead of (or behind) our matrix build:
      // skip the record, keep the rest of the frame.
      ++shard.stats.unknown_slot_dropped;
      continue;
    }
    store_shard->RecordPathAtEpoch(record.slot, record.epoch, record.target, record.sent,
                                   record.lost);
    ++shard.stats.observations_folded;
  }
  for (const WireIntraDelta& record : frame.intra) {
    store_shard->RecordIntraRack(record.target, record.sent, record.lost);
    ++shard.stats.observations_folded;
  }
  for (const WireRttDelta& record : frame.rtt) {
    if (record.slot < 0 || static_cast<size_t>(record.slot) >= num_slots) {
      ++shard.stats.unknown_slot_dropped;
      continue;
    }
    if (record.num_bins != options_.rtt_bins) {
      // Merging it into the slot's running sketch would abort the diagnoser; the frame's loss
      // records above still fold.
      ++shard.stats.rtt_bins_mismatched;
      continue;
    }
    store_shard->RecordPathRttAtEpoch(record.slot, record.epoch, record.target,
                                      record.num_bins, frame.RttBins(record));
    ++shard.stats.observations_folded;
  }
  // Extension records the decoder skipped (newer emitter during a mixed-version rollout): the
  // frame's loss records folded above; only the unknown records are lost, and visibly so.
  shard.stats.unknown_records += frame.unknown_records;
  ++shard.stats.frames_folded;
}

size_t Collector::PumpFrom(Transport& transport) {
  std::vector<uint8_t> frame;
  while (transport.Receive(frame)) {
    // The pump owns the consumer side too, so delivery is unbounded — queue_capacity guards
    // a standalone collector against runaway producers, and must not turn a lossless
    // transport into a lossy one when one thread both receives and folds.
    OfferUnbounded(std::move(frame));
    frame.clear();
  }
  return Drain();
}

CollectorStats Collector::stats() const {
  CollectorStats total;
  total.window_advances = window_advances_;
  const uint64_t clock = liveness_clock_.load(std::memory_order_acquire);
  for (const auto& shard : shards_) {
    total += shard->stats;
    total.pingers_tracked += shard->last_seen.size();
    if (options_.liveness_horizon > 0) {
      for (const auto& [pinger, live] : shard->last_seen) {
        if (clock - live.tick > options_.liveness_horizon) {
          ++total.stale_pingers;
        }
      }
    }
  }
  return total;
}

std::vector<NodeId> Collector::StalePingers() const {
  std::vector<NodeId> stale;
  if (options_.liveness_horizon == 0) {
    return stale;
  }
  const uint64_t clock = liveness_clock_.load(std::memory_order_acquire);
  for (const auto& shard : shards_) {
    for (const auto& [pinger, live] : shard->last_seen) {
      if (clock - live.tick > options_.liveness_horizon) {
        stale.push_back(pinger);
      }
    }
  }
  std::sort(stale.begin(), stale.end());
  return stale;
}

size_t Collector::queued() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->queue.size();
  }
  return total;
}

}  // namespace detector
