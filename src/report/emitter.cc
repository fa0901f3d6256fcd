#include "src/report/emitter.h"

namespace detector {

ReportEmitter::ReportEmitter(NodeId pinger, uint64_t window_id, uint64_t start_seq,
                             std::span<const uint32_t> slot_epochs, Transport& transport,
                             size_t batch_observations, const ReportKey& key)
    : slot_epochs_(slot_epochs),
      transport_(&transport),
      batch_observations_(batch_observations == 0 ? 1 : batch_observations),
      key_(key),
      next_seq_(start_seq) {
  pending_.pinger = pinger;
  pending_.window_id = window_id;
}

void ReportEmitter::Rearm(NodeId pinger, uint64_t window_id, uint64_t start_seq,
                          std::span<const uint32_t> slot_epochs, Transport& transport) {
  DCHECK(pending_.num_observations() == 0) << "rearming an emitter with an unflushed batch";
  slot_epochs_ = slot_epochs;
  transport_ = &transport;
  next_seq_ = start_seq;
  pending_.pinger = pinger;
  pending_.window_id = window_id;
  stats_ = ReportEmitterStats{};
}

void ReportEmitter::OnPath(PathId slot, NodeId target, int64_t sent, int64_t lost) {
  pending_.paths.push_back(WirePathDelta{slot, EpochOf(slot), target, sent, lost});
  if (pending_.num_observations() >= batch_observations_) {
    Flush();
  }
}

void ReportEmitter::OnIntraRack(NodeId target, int64_t sent, int64_t lost) {
  pending_.intra.push_back(WireIntraDelta{target, sent, lost});
  if (pending_.num_observations() >= batch_observations_) {
    Flush();
  }
}

void ReportEmitter::OnPathRtt(PathId slot, NodeId target, const RttSketch& sketch) {
  pending_.AddRtt(slot, EpochOf(slot), target, sketch);
  if (pending_.num_observations() >= batch_observations_) {
    Flush();
  }
}

void ReportEmitter::Flush() {
  if (pending_.num_observations() == 0) {
    return;
  }
  pending_.seq = next_seq_++;
  ReportCodec::Encode(pending_, encode_buf_, key_);
  if (!transport_->Send(encode_buf_)) {
    ++stats_.frames_send_failed;
  }
  ++stats_.frames_emitted;
  stats_.bytes_emitted += encode_buf_.size();
  stats_.observations_emitted += pending_.num_observations();
  pending_.paths.clear();
  pending_.intra.clear();
  pending_.rtt.clear();
  pending_.rtt_bins.clear();
}

}  // namespace detector
