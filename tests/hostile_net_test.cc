// Hostile-network hardening tests (PR 8): frame authentication, impairment-transport
// determinism and loss-free equivalence, collector liveness, and send failures counted at
// the agent when its collector dies.
//
// Provenance of the red runs the acceptance criteria ask for: the tamper tests
// (FrameAuthTest.*) were verified FAILING against the pre-hardening codec (v1: CRC only, no
// MAC) — a bit-flipped frame with a recomputed CRC decoded kOk and would have folded. The
// liveness tests exercise state that did not exist pre-hardening (no last-seen tracking at
// the collector), so they are impossible to express against the old code paths.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/crc32.h"
#include "src/detector/system.h"
#include "src/net/impairment.h"
#include "src/net/loopback.h"
#include "src/report/codec.h"
#include "src/report/collector.h"
#include "src/report/emitter.h"
#include "src/routing/fattree_routing.h"
#include "src/sim/churn.h"
#include "src/topo/fattree.h"
#include "tests/window_equality.h"

namespace detector {
namespace {

ReportFrame SampleFrame() {
  ReportFrame f;
  f.pinger = 7;
  f.window_id = 3;
  f.seq = 11;
  f.paths.push_back(WirePathDelta{12, 1, 40, 200, 3});
  f.paths.push_back(WirePathDelta{15, 1, 41, 180, 0});
  f.intra.push_back(WireIntraDelta{9, 64, 1});
  return f;
}

// Flip one bit in the frame, then recompute the trailing CRC so the frame passes the
// integrity check — the forged-frame shape. Pre-hardening this decoded kOk; the keyed tag
// (which the forger cannot recompute) must reject it.
std::vector<uint8_t> TamperWithCrcFixup(std::vector<uint8_t> bytes, size_t index,
                                        uint8_t mask) {
  bytes[index] ^= mask;
  const size_t body = bytes.size() - 4;
  const uint32_t crc = Crc32({bytes.data(), body});
  for (size_t b = 0; b < 4; ++b) {
    bytes[body + b] = static_cast<uint8_t>(crc >> (8 * b));
  }
  return bytes;
}

TEST(FrameAuthTest, CrcFixedTamperIsRejected) {
  std::vector<uint8_t> bytes;
  ReportCodec::Encode(SampleFrame(), bytes);

  // Flip a bit in every tag and payload byte (magic/version have their own checks; the CRC
  // bytes are skipped because the fixup would undo the flip there).
  const size_t body = bytes.size() - 4;
  for (size_t i = 3; i < body; ++i) {
    std::vector<uint8_t> forged = TamperWithCrcFixup(bytes, i, 0x01);
    ReportFrame out;
    EXPECT_EQ(ReportCodec::Decode(forged, out), DecodeStatus::kBadAuth)
        << "forged frame not flagged as tampered after bit flip at byte " << i;
  }
}

// The collector distinguishes the three rejection classes on its counters: tamper
// (CRC-clean, tag-failed), corruption (CRC-failed), and staleness (authentic but late).
TEST(FrameAuthTest, TamperVsCorruptVsStaleCounters) {
  ObservationStore store;
  store.EnsureSlots(32);
  Collector collector(store);
  collector.BeginWindow(2);

  ReportFrame frame = SampleFrame();
  frame.window_id = 2;
  std::vector<uint8_t> good;
  ReportCodec::Encode(frame, good);

  collector.Offer(TamperWithCrcFixup(good, ReportCodec::kHeaderPos + 2, 0x10));
  std::vector<uint8_t> corrupt = good;
  corrupt[ReportCodec::kHeaderPos + 2] ^= 0x10;  // no CRC fixup: in-flight damage
  collector.Offer(corrupt);
  ReportFrame stale = frame;
  stale.window_id = 1;
  std::vector<uint8_t> stale_wire;
  ReportCodec::Encode(stale, stale_wire);
  collector.Offer(stale_wire);
  collector.Offer(good);

  const CollectorStats stats = collector.stats();
  EXPECT_EQ(stats.tampered_dropped, 1u);
  EXPECT_EQ(stats.decode_errors, 1u);
  EXPECT_EQ(stats.stale_window_dropped, 1u);
  EXPECT_EQ(stats.frames_folded, 1u) << "the untouched frame must still fold";
}

// A collector keyed differently from its emitters treats every frame as tampered — key skew
// is loud, not a silent data hole with folded garbage.
TEST(FrameAuthTest, KeySkewRejectsEveryFrame) {
  ObservationStore store;
  store.EnsureSlots(32);
  CollectorOptions options;
  options.key = ReportKey{0xA1, 0xB2};
  Collector collector(store, options);
  collector.BeginWindow(3);

  LoopbackTransport transport;
  ReportEmitter emitter(/*pinger=*/7, /*window_id=*/3, /*start_seq=*/0, {}, transport,
                        /*batch_observations=*/2);  // default (mismatched) key
  for (PathId slot = 0; slot < 6; ++slot) {
    emitter.OnPath(slot, /*target=*/slot + 50, /*sent=*/10, /*lost=*/1);
  }
  emitter.Flush();
  collector.PumpFrom(transport);

  const CollectorStats stats = collector.stats();
  EXPECT_EQ(stats.tampered_dropped, emitter.stats().frames_emitted);
  EXPECT_EQ(stats.frames_folded, 0u);
  EXPECT_EQ(stats.pingers_tracked, 0u) << "unauthenticated frames must not feed liveness";
}

// ---------------------------------------------------------------------------
// ImpairmentTransport
// ---------------------------------------------------------------------------

std::vector<std::vector<uint8_t>> RunThroughImpairment(const ImpairmentProfile& profile,
                                                       size_t frames,
                                                       ImpairmentStats* stats = nullptr) {
  ImpairmentTransport transport(std::make_unique<LoopbackTransport>(), profile);
  for (size_t i = 0; i < frames; ++i) {
    std::vector<uint8_t> frame(16 + i % 7);
    for (size_t b = 0; b < frame.size(); ++b) {
      frame[b] = static_cast<uint8_t>(i + b);
    }
    transport.Send(frame);
  }
  transport.Flush();
  std::vector<std::vector<uint8_t>> delivered;
  std::vector<uint8_t> out;
  while (transport.Receive(out)) {
    delivered.push_back(out);
  }
  if (stats != nullptr) {
    *stats = transport.impairment_stats();
  }
  return delivered;
}

TEST(ImpairmentTransportTest, SameSeedSameSchedule) {
  ImpairmentProfile profile;
  profile.delay_ticks = 2;
  profile.jitter_ticks = 5;
  profile.rate_limit_per_tick = 2;
  profile.burst_loss_rate = 0.05;
  profile.burst_length = 3;
  profile.dup_rate = 0.1;
  profile.corrupt_rate = 0.05;
  profile.seed = 42;

  ImpairmentStats stats;
  const auto a = RunThroughImpairment(profile, 200, &stats);
  const auto b = RunThroughImpairment(profile, 200);
  EXPECT_EQ(a, b) << "same seed and send order must deliver identically, byte for byte";
  // The profile actually did things — every impairment class fired at these rates.
  EXPECT_GT(stats.frames_dropped_burst, 0u);
  EXPECT_GT(stats.frames_duplicated, 0u);
  EXPECT_GT(stats.frames_corrupted + stats.frames_truncated, 0u);
  EXPECT_GT(stats.frames_delayed, 0u);
  EXPECT_GT(stats.frames_rate_limited, 0u);
  EXPECT_LT(a.size(), 200u + stats.frames_duplicated) << "burst loss delivered everything";

  profile.seed = 43;
  const auto c = RunThroughImpairment(profile, 200);
  EXPECT_NE(a, c) << "a different seed should produce a different schedule";
}

TEST(ImpairmentTransportTest, BurstLossEatsRuns) {
  ImpairmentProfile profile;
  profile.burst_loss_rate = 0.1;
  profile.burst_length = 4;
  profile.seed = 7;
  ImpairmentStats stats;
  const auto delivered = RunThroughImpairment(profile, 400, &stats);
  EXPECT_EQ(delivered.size() + stats.frames_dropped_burst, 400u)
      << "every sent frame is either delivered or a counted burst loss";
  // Bursts eat burst_length frames per trigger, so losses come in multiples of whole bursts
  // (the tail burst may be cut short by the end of the run).
  EXPECT_GE(stats.frames_dropped_burst, profile.burst_length);
}

// burst_length = 1 is i.i.d. loss — every i.i.d.-loss caller in the repo relies on it: each
// frame drops on its own coin flip, so the dropped share sits at the rate, and the same seed
// drops the same frames.
TEST(ImpairmentTransportTest, UnitBurstIsIidLoss) {
  ImpairmentProfile profile;
  profile.burst_loss_rate = 0.25;
  profile.burst_length = 1;
  profile.seed = 19;
  constexpr size_t kFrames = 20000;
  ImpairmentStats stats;
  const auto delivered = RunThroughImpairment(profile, kFrames, &stats);
  EXPECT_EQ(delivered.size() + stats.frames_dropped_burst, kFrames);
  const double dropped_share =
      static_cast<double>(stats.frames_dropped_burst) / static_cast<double>(kFrames);
  EXPECT_GE(dropped_share, 0.23);
  EXPECT_LE(dropped_share, 0.27);
  EXPECT_EQ(delivered, RunThroughImpairment(profile, kFrames))
      << "the same seed must drop the same frames";
}

TEST(ImpairmentTransportTest, LosslessProfileLosesNothing) {
  ImpairmentProfile profile;
  profile.delay_ticks = 3;
  profile.jitter_ticks = 7;
  profile.rate_limit_per_tick = 1;
  profile.dup_rate = 0.15;
  profile.seed = 11;
  ASSERT_TRUE(profile.lossless());
  ImpairmentStats stats;
  const auto delivered = RunThroughImpairment(profile, 300, &stats);
  EXPECT_EQ(delivered.size(), 300u + stats.frames_duplicated)
      << "a lossless profile must deliver every frame (plus its duplicates) after Flush";
}

// Corrupted frames reach the collector but never the store: every damaged frame is rejected
// by the codec (bit flips fail the CRC, truncations fail structurally) and counted.
TEST(ImpairmentTransportTest, CorruptedFramesNeverFold) {
  ImpairmentProfile profile;
  profile.corrupt_rate = 1.0;
  profile.truncate_fraction = 0.5;
  profile.seed = 13;
  ImpairmentTransport transport(std::make_unique<LoopbackTransport>(), profile);

  ObservationStore store;
  store.EnsureSlots(64);
  Collector collector(store);
  collector.BeginWindow(1);
  ReportEmitter emitter(/*pinger=*/3, /*window_id=*/1, /*start_seq=*/0, {}, transport,
                        /*batch_observations=*/4);
  for (PathId slot = 0; slot < 40; ++slot) {
    emitter.OnPath(slot, /*target=*/slot + 10, /*sent=*/5, /*lost=*/0);
  }
  emitter.Flush();
  transport.Flush();
  collector.PumpFrom(transport);

  const CollectorStats stats = collector.stats();
  EXPECT_EQ(stats.frames_folded, 0u) << "a 100%-corruption channel folded a frame";
  EXPECT_EQ(stats.decode_errors, emitter.stats().frames_emitted);
  EXPECT_EQ(stats.tampered_dropped, 0u)
      << "random damage must read as corruption, not tamper";
}

// The satellite equivalence gate: any impairment profile with loss and corruption disabled
// (delay, jitter, rate limit and duplication) leaves window-end store state bit-identical to
// direct mode at 1, 2 and 8 probe threads — delivery is reshuffled and duplicated, but the
// idempotent (pinger, window, seq) fold erases all of it.
TEST(HostileNet, LosslessImpairmentBitIdenticalToDirectAt1_2_8Threads) {
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  FailureScenario scenario;
  LinkFailure f;
  f.link = ft.EdgeAggLink(0, 1, 0);
  f.type = FailureType::kRandomPartial;
  f.loss_rate = 0.08;
  scenario.failures.push_back(f);
  std::vector<ChurnEvent> churn;
  churn.push_back(ChurnEvent{8.0, TopologyDelta::LinkDown(ft.AggCoreLink(1, 0, 1))});
  churn.push_back(ChurnEvent{14.0, TopologyDelta::NodeDown(ft.Server(2, 0, 1))});
  churn.push_back(ChurnEvent{23.0, TopologyDelta::LinkUp(ft.AggCoreLink(1, 0, 1))});

  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    auto run = [&](bool impaired) {
      DetectorSystemOptions options;
      options.pmc.alpha = 1;
      options.pmc.beta = 1;
      options.controller.packets_per_second = 150;
      options.segments_per_window = 6;
      options.diagnose_every_segments = 2;
      options.probe_threads = threads;
      options.report_plane = impaired;
      DetectorSystem system(routing, options);
      if (impaired) {
        system.SetReportTransportFactory([](size_t i) -> std::unique_ptr<Transport> {
          ImpairmentProfile profile;
          profile.delay_ticks = 2;
          profile.jitter_ticks = 4;
          profile.rate_limit_per_tick = 8;
          profile.dup_rate = 0.1;
          profile.seed = 91 + i;
          return std::make_unique<ImpairmentTransport>(std::make_unique<LoopbackTransport>(),
                                                       profile);
        });
      }
      Rng rng(99);
      std::vector<DetectorSystem::StreamingWindowResult> out;
      out.push_back(system.RunWindowStreaming(scenario, churn, rng));
      out.push_back(system.RunWindowStreaming(scenario, {}, rng));
      if (impaired) {
        EXPECT_NE(system.collector_group(), nullptr);
        if (system.collector_group() != nullptr) {
          const CollectorStats stats = system.collector_group()->stats();
          EXPECT_GT(stats.frames_folded, 0u);
          EXPECT_GT(stats.duplicates_dropped, 0u) << "dup injection never fired";
          EXPECT_EQ(stats.decode_errors, 0u);
          EXPECT_EQ(stats.tampered_dropped, 0u);
        }
      }
      return out;
    };
    const auto direct = run(false);
    const auto impaired = run(true);
    ASSERT_EQ(direct.size(), impaired.size());
    for (size_t w = 0; w < direct.size(); ++w) {
      const std::string when =
          "threads=" + std::to_string(threads) + " window=" + std::to_string(w);
      ExpectIdenticalWindows(direct[w].window, impaired[w].window, when);
      ASSERT_EQ(direct[w].timeline.size(), impaired[w].timeline.size()) << when;
      for (size_t i = 0; i < direct[w].timeline.size(); ++i) {
        ExpectIdenticalLocalizations(direct[w].timeline[i].localization,
                                     impaired[w].timeline[i].localization,
                                     when + " boundary " + std::to_string(i));
        EXPECT_EQ(direct[w].timeline[i].server_link_alarms,
                  impaired[w].timeline[i].server_link_alarms)
            << when << " boundary " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Liveness
// ---------------------------------------------------------------------------

std::vector<uint8_t> LivenessFrame(NodeId pinger, uint64_t window, uint64_t seq) {
  ReportFrame frame;
  frame.pinger = pinger;
  frame.window_id = window;
  frame.seq = seq;
  frame.paths.push_back(WirePathDelta{0, 0, 10, 5, 0});
  std::vector<uint8_t> wire;
  ReportCodec::Encode(frame, wire);
  return wire;
}

// The liveness soak: an agent that goes silent mid-run is flagged stale within the
// configured horizon — not one tick earlier (a quiet-but-in-horizon pinger is fine), and it
// recovers the moment it speaks again.
TEST(Liveness, SilentAgentFlagsStaleWithinHorizon) {
  ObservationStore store;
  store.EnsureSlots(32);
  CollectorOptions options;
  options.liveness_horizon = 3;
  Collector collector(store, options);
  collector.BeginWindow(1);

  // Both agents report in window 1.
  collector.Offer(LivenessFrame(5, 1, 0));
  collector.Offer(LivenessFrame(6, 1, 0));
  EXPECT_EQ(collector.stats().pingers_tracked, 2u);
  EXPECT_TRUE(collector.StalePingers().empty());

  // Agent 6 dies. Agent 5 keeps reporting every boundary; each tick within the horizon must
  // NOT flag agent 6 yet.
  uint64_t seq = 1;
  for (uint64_t tick = 0; tick < options.liveness_horizon; ++tick) {
    collector.AdvanceBoundary();
    collector.Offer(LivenessFrame(5, 1, seq++));
    EXPECT_TRUE(collector.StalePingers().empty())
        << "flagged " << tick + 1 << " ticks into a horizon of " << options.liveness_horizon;
  }
  // One tick past the horizon: agent 6 is the alarm, agent 5 is not.
  collector.AdvanceBoundary();
  collector.Offer(LivenessFrame(5, 1, seq++));
  EXPECT_EQ(collector.StalePingers(), std::vector<NodeId>{6});
  EXPECT_EQ(collector.stats().stale_pingers, 1u);
  EXPECT_EQ(collector.stats().pingers_tracked, 2u) << "stale is tracked, not forgotten";

  // The agent comes back — even a duplicate of an old frame proves liveness.
  EXPECT_FALSE(collector.Offer(LivenessFrame(6, 1, 0)));
  EXPECT_TRUE(collector.StalePingers().empty());
  EXPECT_EQ(collector.stats().duplicates_dropped, 1u);
}

// Liveness state survives window flips — silence is exactly what it must remember across
// windows, and the clock ticks at every window open: BeginWindow or a frame-driven flip.
TEST(Liveness, TrackingSurvivesWindowFlips) {
  ObservationStore store;
  store.EnsureSlots(32);
  CollectorOptions options;
  options.liveness_horizon = 2;
  Collector collector(store, options);
  collector.BeginWindow(1);
  collector.Offer(LivenessFrame(5, 1, 0));
  collector.Offer(LivenessFrame(6, 1, 0));

  for (uint64_t w = 2; w <= 4; ++w) {
    collector.BeginWindow(w);
    collector.Offer(LivenessFrame(5, w, 0));
  }
  EXPECT_EQ(collector.StalePingers(), std::vector<NodeId>{6})
      << "window flips cleared liveness state";
  EXPECT_EQ(collector.stats().pingers_tracked, 2u);

  // The deployed collectors' flips: a newer-window frame flips the window itself, which must
  // tick the clock like BeginWindow does.
  ObservationStore deployed_store;
  deployed_store.EnsureSlots(32);
  Collector deployed(deployed_store, options);
  deployed.BeginWindow(1);
  deployed.Offer(LivenessFrame(5, 1, 0));
  deployed.Offer(LivenessFrame(6, 1, 0));
  for (uint64_t w = 2; w <= 4; ++w) {
    EXPECT_TRUE(deployed.Offer(LivenessFrame(5, w, 0)));
  }
  EXPECT_EQ(deployed.current_window(), 4u);
  EXPECT_EQ(deployed.liveness_clock(), 4u);
  EXPECT_EQ(deployed.StalePingers(), std::vector<NodeId>{6})
      << "frame-driven window flips did not tick the liveness clock";
}

// A frame that flips the window is heard at the tick of the window it opens, not at the tick
// of the window it closes: one boundary later its pinger is still within a horizon of 1.
TEST(Liveness, FlippingFrameRefreshesAtTheNewWindowsTick) {
  ObservationStore store;
  store.EnsureSlots(32);
  CollectorOptions options;
  options.liveness_horizon = 1;
  Collector collector(store, options);
  collector.BeginWindow(1);
  EXPECT_TRUE(collector.Offer(LivenessFrame(5, 1, 0)));
  EXPECT_TRUE(collector.Offer(LivenessFrame(5, 2, 0)));
  EXPECT_EQ(collector.current_window(), 2u);
  collector.AdvanceBoundary();
  EXPECT_TRUE(collector.StalePingers().empty())
      << "the flipping frame refreshed liveness before its window opened";
  EXPECT_EQ(collector.stats().stale_pingers, 0u);
}

// ---------------------------------------------------------------------------
// Send failures
// ---------------------------------------------------------------------------

// A loopback whose send side can be killed mid-run — the unit-test stand-in for a collector
// process dying under a connected UDP socket (ECONNREFUSED makes Send return false there).
class KillableTransport final : public Transport {
 public:
  bool Send(std::span<const uint8_t> frame) override {
    if (dead_.load(std::memory_order_acquire)) {
      return false;
    }
    return inner_.Send(frame);
  }
  bool Receive(std::vector<uint8_t>& out) override { return inner_.Receive(out); }
  void Flush() override { inner_.Flush(); }
  TransportStats stats() const override { return inner_.stats(); }
  void Kill() { dead_.store(true, std::memory_order_release); }

 private:
  std::atomic<bool> dead_{false};
  LoopbackTransport inner_;
};

// The collector dies mid-window: every later frame is a counted send failure rather than
// silent loss, and the accounting stays exact — every emitted frame is folded or counted. The
// emitter sends through `transport`, which is `wire` itself or a decorator over it.
void ExpectDeadCollectorCountsEveryLaterFrame(Transport& transport, KillableTransport& wire) {
  ObservationStore store;
  store.EnsureSlots(256);
  Collector collector(store);
  collector.BeginWindow(1);
  ReportEmitter emitter(/*pinger=*/4, /*window_id=*/1, /*start_seq=*/0, {}, transport,
                        /*batch_observations=*/1);  // one frame per observation
  for (PathId slot = 0; slot < 100; ++slot) {
    if (slot == 40) {
      wire.Kill();  // the collector process dies mid-window
    }
    emitter.OnPath(slot, /*target=*/slot, /*sent=*/3, /*lost=*/0);
  }
  emitter.Flush();
  EXPECT_EQ(emitter.stats().frames_emitted, 100u);
  EXPECT_EQ(emitter.stats().frames_send_failed, 60u);

  collector.PumpFrom(transport);
  const CollectorStats stats = collector.stats();
  EXPECT_EQ(stats.frames_folded + emitter.stats().frames_send_failed,
            emitter.stats().frames_emitted)
      << "a refused frame was neither folded nor counted";
  EXPECT_EQ(stats.duplicates_dropped, 0u);
  EXPECT_EQ(stats.decode_errors, 0u);
}

// Bare, and behind the impairment decorator with an empty profile — which must hand each
// refused forward back to the sender, not swallow it as an in-flight loss.
TEST(SendFailure, DeadCollectorCountsEveryLaterFrame) {
  {
    SCOPED_TRACE("bare wire");
    KillableTransport wire;
    ExpectDeadCollectorCountsEveryLaterFrame(wire, wire);
  }
  {
    SCOPED_TRACE("empty impairment profile");
    auto owned = std::make_unique<KillableTransport>();
    KillableTransport& wire = *owned;
    ImpairmentTransport impaired(std::move(owned), ImpairmentProfile{});
    ExpectDeadCollectorCountsEveryLaterFrame(impaired, wire);
  }
}

}  // namespace
}  // namespace detector
