// ImpairmentTransport: a LinkEm-style network-impairment decorator over any Transport, and
// the repo's one fault injector. It models the pathologies a real report network produces —
// propagation delay, jitter (which reorders), a rate-limited bottleneck, bursty loss (one
// congestion event eats a run of frames; burst_length = 1 is i.i.d. loss), duplication, and
// in-flight damage (truncation or bit flips) — all scheduled from one seeded RNG in send
// order, so a given send sequence always produces the same delivery sequence, byte-for-byte.
//
// Time is virtual: every Send() is one tick. A sent frame is staged with a release tick of
// now + delay + uniform(jitter); once the clock passes a frame's release tick it is forwarded
// to the inner transport (at most rate_limit_per_tick frames per tick — excess slips to the
// next tick, which is how the bottleneck builds queueing delay). Flush() releases everything
// staged regardless of release tick, then flushes the inner transport — the in-process
// barrier contract — so a profile with loss and corruption disabled reshuffles and duplicates
// delivery but loses nothing, and the collector's idempotent fold keeps window-end state
// bit-identical to direct mode (gated in tests/hostile_net_test.cc).
//
// Send() returns true for the frames the schedule drops, as a real network would, but not for
// the frames the inner transport refuses (a dead collector behind a connected UDP socket):
// each refused forward makes one later Send() return false. With no delay or jitter that is
// the Send() that staged the frame; a refusal met by a later release or by Flush() surfaces
// on the next Send().
#ifndef SRC_NET_IMPAIRMENT_H_
#define SRC_NET_IMPAIRMENT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/net/transport.h"

namespace detector {

struct ImpairmentProfile {
  uint64_t delay_ticks = 0;         // fixed propagation delay, in send ticks
  uint64_t jitter_ticks = 0;        // + uniform[0, jitter] per frame — reorders across senders
  uint64_t rate_limit_per_tick = 0; // bottleneck: frames forwarded per tick (0 = unlimited)
  double burst_loss_rate = 0.0;     // probability a frame *starts* a loss burst
  uint64_t burst_length = 4;        // frames a burst eats (the trigger frame included)
  double dup_rate = 0.0;            // probability a frame is delivered twice
  double corrupt_rate = 0.0;        // probability a frame is damaged in flight
  double truncate_fraction = 0.5;   // of corrupted frames: this many truncate, the rest bit-flip
  uint64_t seed = 1;                // impairment RNG seed

  bool lossless() const { return burst_loss_rate == 0.0 && corrupt_rate == 0.0; }
};

struct ImpairmentStats {
  uint64_t frames_delayed = 0;      // staged with release tick > send tick
  uint64_t frames_dropped_burst = 0;
  uint64_t frames_duplicated = 0;
  uint64_t frames_corrupted = 0;    // bit-flipped
  uint64_t frames_truncated = 0;
  uint64_t frames_rate_limited = 0; // release slipped >= 1 tick at the bottleneck
};

class ImpairmentTransport final : public Transport {
 public:
  ImpairmentTransport(std::unique_ptr<Transport> inner, ImpairmentProfile profile);

  bool Send(std::span<const uint8_t> frame) override;
  bool Receive(std::vector<uint8_t>& out) override;
  // Releases every staged frame (ignoring release ticks and the rate limit — the barrier
  // outranks the schedule), then flushes the inner transport.
  void Flush() override;
  TransportStats stats() const override;

  const ImpairmentStats& impairment_stats() const { return impairment_stats_; }

 private:
  // Stage `frame` (already damaged/duplicated as decided) for release. Caller holds mu_.
  void StageLocked(std::vector<uint8_t> frame);
  // Forward every staged frame whose release tick has passed, rate limit permitting.
  // Caller holds mu_.
  void ReleaseReadyLocked();
  // Runs ReleaseReadyLocked and returns Send()'s result: false, once, for each refused
  // forward not yet reported. Caller holds mu_.
  bool ReleaseAndReportLocked();

  const ImpairmentProfile profile_;
  std::unique_ptr<Transport> inner_;

  mutable std::mutex mu_;
  Rng rng_;                    // guarded by mu_: impairment decisions are serialized
  uint64_t tick_ = 0;          // virtual clock: one Send = one tick
  uint64_t burst_remaining_ = 0;
  uint64_t stage_seq_ = 0;     // tie-break so same-tick frames keep send order
  // Staged frames keyed by (release tick, stage seq) — ordered release.
  std::map<std::pair<uint64_t, uint64_t>, std::vector<uint8_t>> staged_;
  uint64_t released_this_tick_ = 0;
  uint64_t last_release_tick_ = 0;
  uint64_t refusals_unreported_ = 0;  // inner Sends that failed, not yet returned as false
  TransportStats stats_;
  ImpairmentStats impairment_stats_;
};

}  // namespace detector

#endif  // SRC_NET_IMPAIRMENT_H_
