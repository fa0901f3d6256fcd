// Transport: the pluggable datagram channel the report plane rides on — pinger-side emitters
// Send() encoded frames, the collector side Receive()s them. Frame boundaries are preserved
// (one Send is one Receive); delivery may drop, duplicate-free reorder, or lose frames
// depending on the backend, and the report codec/collector are built to tolerate all three.
//
// Backends:
//  - LoopbackTransport (src/net/loopback): lossless in-process FIFO, the in-process report
//    plane's default, over which it is bit-identical to direct store writes (ctest-gated).
//  - UdpTransport (src/net/udp): real UDP sockets over localhost between fleet_runner's
//    agent and collector processes.
// ImpairmentTransport (src/net/impairment) decorates either with seeded loss, delay, jitter,
// duplication and corruption.
#ifndef SRC_NET_TRANSPORT_H_
#define SRC_NET_TRANSPORT_H_

#include <cstdint>
#include <span>
#include <vector>

namespace detector {

struct TransportStats {
  uint64_t frames_sent = 0;      // accepted by Send (whether or not later dropped)
  uint64_t bytes_sent = 0;
  uint64_t frames_dropped = 0;   // injected or real send-side losses the backend can observe
  uint64_t frames_received = 0;  // handed out by Receive
};

class Transport {
 public:
  virtual ~Transport() = default;

  // Sends one frame. Thread-safe: many pinger shards send concurrently. Returns false only on
  // a hard backend error (a dropped-by-policy frame still returns true — the sender cannot
  // tell, exactly like real UDP). A backend that defers delivery may report the error on a
  // later Send, once per refused frame (ImpairmentTransport; a connected UdpTransport learns
  // of a closed port from the previous datagram).
  virtual bool Send(std::span<const uint8_t> frame) = 0;

  // Pops the next deliverable frame into `out`; false when nothing is pending right now.
  // Single consumer (the collector's pump).
  virtual bool Receive(std::vector<uint8_t>& out) = 0;

  // Barrier for in-process backends: after Flush, everything Send'ed and not dropped is
  // receivable. Network backends cannot promise that and leave it a no-op.
  virtual void Flush() {}

  virtual TransportStats stats() const = 0;
};

}  // namespace detector

#endif  // SRC_NET_TRANSPORT_H_
