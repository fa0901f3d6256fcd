// ReportEmitter: the pinger-side half of the report plane. An emitter armed for one pinger's
// probe segment adapts the pinger's streamed counters (Pinger::RunWindowTo) into batched wire
// frames: every path record is stamped with the slot epoch current at probe time, records
// accumulate until the batch fills, and Flush() seals the batch into one ReportCodec frame —
// sequence-numbered per (pinger, window) — and Send()s it on the transport. Runs entirely on
// the shard's own thread; the only shared things it touches are the read-only epoch view and
// the thread-safe transport. Rearm() points it at the next shard, so one emitter per probe
// worker serves every segment with the batch and encode buffers it already grew.
#ifndef SRC_REPORT_EMITTER_H_
#define SRC_REPORT_EMITTER_H_

#include <cstdint>
#include <span>

#include "src/anomaly/rtt_sketch.h"
#include "src/net/transport.h"
#include "src/report/codec.h"

namespace detector {

struct ReportEmitterStats {
  uint64_t frames_emitted = 0;
  uint64_t bytes_emitted = 0;
  uint64_t observations_emitted = 0;
  // Frames the transport refused outright (hard backend error, e.g. a frame over the UDP
  // datagram limit, or a dead collector's port refusing a connected socket) — distinct from
  // in-flight losses, which no sender can observe.
  uint64_t frames_send_failed = 0;
};

class ReportEmitter {
 public:
  // `slot_epochs` is the store's per-slot epoch view (may be empty: every record then carries
  // epoch 0, the fresh-store default — what a remote agent without a local store sends).
  // `start_seq` continues the pinger's per-window frame numbering across probe segments.
  // `key` tags each frame; it must match the collectors' key or every frame lands kBadAuth.
  ReportEmitter(NodeId pinger, uint64_t window_id, uint64_t start_seq,
                std::span<const uint32_t> slot_epochs, Transport& transport,
                size_t batch_observations = 64, const ReportKey& key = {});

  // Re-targets the emitter as if freshly constructed with these arguments and its batch size
  // and key, keeping the batch and encode buffers. The pending batch must have been flushed.
  void Rearm(NodeId pinger, uint64_t window_id, uint64_t start_seq,
             std::span<const uint32_t> slot_epochs, Transport& transport);

  void OnPath(PathId slot, NodeId target, int64_t sent, int64_t lost);
  void OnIntraRack(NodeId target, int64_t sent, int64_t lost);
  // Copies the path's RTT sketch into the pending frame's bin arena as an extension record,
  // stamped with the same probe-time epoch as the loss record it accompanies. Follows the
  // path's OnPath call, only when the sketch is non-empty.
  void OnPathRtt(PathId slot, NodeId target, const RttSketch& sketch);

  // Seals and sends the pending batch (no-op when empty). Call after the window/segment's
  // last record; OnPath/OnIntraRack flush full batches themselves.
  void Flush();

  // The next frame's sequence number — hand back to the per-window counter after the segment.
  uint64_t next_seq() const { return next_seq_; }
  const ReportEmitterStats& stats() const { return stats_; }

 private:
  uint32_t EpochOf(PathId slot) const {
    return static_cast<size_t>(slot) < slot_epochs_.size()
               ? slot_epochs_[static_cast<size_t>(slot)]
               : 0;
  }

  std::span<const uint32_t> slot_epochs_;
  Transport* transport_;
  const size_t batch_observations_;
  const ReportKey key_;
  uint64_t next_seq_;
  ReportFrame pending_;
  std::vector<uint8_t> encode_buf_;
  ReportEmitterStats stats_;
};

}  // namespace detector

#endif  // SRC_REPORT_EMITTER_H_
