// LoopbackTransport: lossless in-process datagram channel. A mutex-guarded FIFO carries
// frames from any number of sending threads to the single receiving pump, order-preserving
// per sender — what the report-plane bit-exactness gate runs over. Fault injection (loss,
// reordering, duplication, corruption) is ImpairmentTransport's job, layered on top.
//
// Receive swaps the queued frame into the caller's vector and keeps the vector it gets back;
// Send copies the next frame into one of those kept vectors. A pump that receives into the
// same vector every time (Collector::PumpFrom) therefore cycles a fixed set of buffers, and
// the channel allocates nothing per frame once they have grown.
#ifndef SRC_NET_LOOPBACK_H_
#define SRC_NET_LOOPBACK_H_

#include <deque>
#include <mutex>
#include <vector>

#include "src/net/transport.h"

namespace detector {

class LoopbackTransport final : public Transport {
 public:
  bool Send(std::span<const uint8_t> frame) override;
  bool Receive(std::vector<uint8_t>& out) override;
  // Everything sent is already receivable; nothing to flush.
  void Flush() override {}
  TransportStats stats() const override;

 private:
  mutable std::mutex mu_;
  std::deque<std::vector<uint8_t>> queue_;
  std::vector<std::vector<uint8_t>> spare_;  // buffers handed back by Receive
  TransportStats stats_;
};

}  // namespace detector

#endif  // SRC_NET_LOOPBACK_H_
