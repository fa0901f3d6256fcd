// Report-plane tests: wire-format round-trips and robustness (truncated / corrupted / short
// frames must decode to an error, never crash or partially fold), collector tolerance
// (duplicate and out-of-order delivery keep totals bit-identical; stale windows drop cleanly;
// the pump folds a whole lossless backlog), transport fault injection, the report-vs-direct
// bit-exactness gate at 1, 2 and 8 probe threads, the deployed collector sealing what the
// in-process system seals and continuing its log's window numbering across a restart, and
// real UDP over localhost, including the sends a closed collector port refuses (skipped with
// a notice when the sandbox forbids sockets).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <vector>

#include "src/common/crc32.h"
#include "src/detector/analyzer.h"
#include "src/detector/system.h"
#include "src/history/window_log.h"
#include "src/net/impairment.h"
#include "src/net/loopback.h"
#include "src/net/udp.h"
#include "src/report/codec.h"
#include "src/report/collector.h"
#include "src/report/emitter.h"
#include "src/routing/fattree_routing.h"
#include "src/sim/anomaly_scenarios.h"
#include "src/sim/churn.h"
#include "src/topo/fattree.h"
#include "tests/window_equality.h"

namespace detector {
namespace {

ReportFrame SampleFrame() {
  ReportFrame frame;
  frame.pinger = 42;
  frame.window_id = 7;
  frame.seq = 3;
  frame.paths.push_back(WirePathDelta{5, 0, 101, 120, 4});
  frame.paths.push_back(WirePathDelta{2, 1, 99, 64, 0});  // out-of-order slot (zigzag delta)
  frame.paths.push_back(WirePathDelta{700, 0, 101, 1, 1});
  frame.intra.push_back(WireIntraDelta{43, 30, 2});
  return frame;
}

TEST(ReportCodec, VarintZigzagRoundTrip) {
  const std::vector<uint64_t> values = {0, 1, 127, 128, 300, 1ULL << 20, 1ULL << 40,
                                        ~0ULL};
  std::vector<uint8_t> buf;
  for (const uint64_t v : values) {
    PutVarint(buf, v);
  }
  size_t pos = 0;
  for (const uint64_t v : values) {
    uint64_t got = 0;
    ASSERT_TRUE(GetVarint(buf, pos, got));
    EXPECT_EQ(got, v);
  }
  EXPECT_EQ(pos, buf.size());
  for (const int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1}, int64_t{-123456789},
                          int64_t{1} << 40}) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(v)), v);
  }
}

TEST(ReportCodec, FrameRoundTrip) {
  const ReportFrame frame = SampleFrame();
  std::vector<uint8_t> wire;
  ReportCodec::Encode(frame, wire);
  ReportFrame decoded;
  ASSERT_EQ(ReportCodec::Decode(wire, decoded), DecodeStatus::kOk);
  EXPECT_EQ(decoded, frame);
  // Varint packing earns its keep even on this small frame.
  EXPECT_LT(wire.size(), ReportCodec::FixedWidthBytes(frame));
}

TEST(ReportCodec, EmptyFrameRoundTrip) {
  ReportFrame frame;
  frame.pinger = 0;
  frame.window_id = 0;
  frame.seq = 0;
  std::vector<uint8_t> wire;
  ReportCodec::Encode(frame, wire);
  ReportFrame decoded;
  ASSERT_EQ(ReportCodec::Decode(wire, decoded), DecodeStatus::kOk);
  EXPECT_EQ(decoded, frame);
}

TEST(ReportCodec, EveryTruncationIsAnError) {
  std::vector<uint8_t> wire;
  ReportCodec::Encode(SampleFrame(), wire);
  for (size_t len = 0; len < wire.size(); ++len) {
    ReportFrame decoded;
    decoded.pinger = -7;  // sentinel: decode must not touch the output on error
    const DecodeStatus status =
        ReportCodec::Decode(std::span<const uint8_t>(wire.data(), len), decoded);
    EXPECT_NE(status, DecodeStatus::kOk) << "prefix of length " << len << " decoded";
    EXPECT_EQ(decoded.pinger, -7) << "output mutated on error at length " << len;
  }
}

TEST(ReportCodec, EverySingleByteCorruptionIsAnError) {
  std::vector<uint8_t> wire;
  ReportCodec::Encode(SampleFrame(), wire);
  for (size_t i = 0; i < wire.size(); ++i) {
    for (const uint8_t flip : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xFF}}) {
      std::vector<uint8_t> corrupted = wire;
      corrupted[i] ^= flip;
      ReportFrame decoded;
      EXPECT_NE(ReportCodec::Decode(corrupted, decoded), DecodeStatus::kOk)
          << "corruption at byte " << i << " xor " << int{flip} << " decoded";
    }
  }
}

// Flip one bit and recompute the trailing CRC so only the auth layer can catch the change —
// the forged-frame shape (a tamperer can always fix the checksum; only the keyed tag stops
// them).
std::vector<uint8_t> FlipWithCrcFixup(std::vector<uint8_t> bytes, size_t index, int bit) {
  bytes[index] ^= static_cast<uint8_t>(1u << bit);
  const size_t body = bytes.size() - 4;
  const uint32_t crc = Crc32({bytes.data(), body});
  for (size_t b = 0; b < 4; ++b) {
    bytes[body + b] = static_cast<uint8_t>(crc >> (8 * b));
  }
  return bytes;
}

// The structured fuzz over the authenticated frame layout: every single-bit flip across
// header, auth tag, payload, and CRC is rejected, and the *classification* is right — raw
// flips read as in-flight damage (kBadCrc; magic/version have their own earlier checks),
// CRC-fixed flips read as tamper (kBadAuth) everywhere the tag protects. The distinction is
// what the collector counts (decode_errors vs tampered_dropped), so it is load-bearing.
TEST(ReportCodec, EverySingleBitFlipIsRejectedAndClassified) {
  std::vector<uint8_t> wire;
  ReportCodec::Encode(SampleFrame(), wire);
  const size_t body = wire.size() - 4;
  for (size_t i = 0; i < wire.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      // Raw flip: random corruption. The CRC (or an earlier magic/version check) catches it.
      std::vector<uint8_t> corrupted = wire;
      corrupted[i] ^= static_cast<uint8_t>(1u << bit);
      ReportFrame decoded;
      decoded.pinger = -7;
      const DecodeStatus raw_status = ReportCodec::Decode(corrupted, decoded);
      EXPECT_NE(raw_status, DecodeStatus::kOk) << "bit " << bit << " of byte " << i;
      if (i >= 3) {
        EXPECT_EQ(raw_status, DecodeStatus::kBadCrc)
            << "raw flip at byte " << i << " bit " << bit << " misclassified as "
            << DecodeStatusName(raw_status);
      }
      EXPECT_EQ(decoded.pinger, -7) << "output mutated on error";

      // CRC-fixed flip: deliberate tamper. Skip the CRC bytes themselves (the fixup would
      // undo the flip) — magic/version keep their own statuses, everything else must land
      // kBadAuth: the tag covers tag-and-payload, and is verified before any parsing.
      if (i >= body) {
        continue;
      }
      const std::vector<uint8_t> forged = FlipWithCrcFixup(wire, i, bit);
      const DecodeStatus forged_status = ReportCodec::Decode(forged, decoded);
      if (i < 2) {
        EXPECT_EQ(forged_status, DecodeStatus::kBadMagic) << "byte " << i << " bit " << bit;
      } else if (i == 2) {
        EXPECT_EQ(forged_status, DecodeStatus::kBadVersion) << "bit " << bit;
      } else {
        EXPECT_EQ(forged_status, DecodeStatus::kBadAuth)
            << "forged bit " << bit << " of byte " << i << " classified as "
            << DecodeStatusName(forged_status);
      }
      EXPECT_EQ(decoded.pinger, -7) << "output mutated on tamper";
    }
  }
}

TEST(ReportCodec, WrongKeyIsBadAuth) {
  std::vector<uint8_t> wire;
  ReportCodec::Encode(SampleFrame(), wire, ReportKey{1, 2});
  ReportFrame decoded;
  EXPECT_EQ(ReportCodec::Decode(wire, decoded, ReportKey{1, 2}), DecodeStatus::kOk);
  EXPECT_EQ(ReportCodec::Decode(wire, decoded, ReportKey{1, 3}), DecodeStatus::kBadAuth);
  EXPECT_EQ(ReportCodec::Decode(wire, decoded), DecodeStatus::kBadAuth)
      << "default-key collector accepted a foreign deployment's frame";
}

TEST(ReportCodec, GarbageAndShortBuffersNeverCrash) {
  ReportFrame decoded;
  EXPECT_EQ(ReportCodec::Decode({}, decoded), DecodeStatus::kTooShort);
  const std::vector<uint8_t> noise(64, 0xAB);
  EXPECT_EQ(ReportCodec::Decode(noise, decoded), DecodeStatus::kBadMagic);
  Rng rng(11);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> random(rng.NextBounded(64));
    for (auto& byte : random) {
      byte = static_cast<uint8_t>(rng());
    }
    EXPECT_NE(ReportCodec::Decode(random, decoded), DecodeStatus::kOk);
  }
}

// Fold `frames` (in the given order) through a collector into a fresh store and return the
// resulting totals over `num_slots`.
Observations FoldedTotals(const std::vector<std::vector<uint8_t>>& frames, size_t num_slots,
                          const Watchdog& watchdog, CollectorStats* stats = nullptr) {
  ObservationStore store;
  store.EnsureSlots(num_slots);
  Collector collector(store);
  collector.BeginWindow(1);
  for (const auto& frame : frames) {
    collector.Offer(frame);
  }
  if (stats != nullptr) {
    *stats = collector.stats();
  }
  const ObservationView view = store.RunningTotals(num_slots, watchdog);
  return Observations(view.begin(), view.end());
}

TEST(ReportEmitter, RearmedEmitterSendsWhatAFreshOneSends) {
  // One emitter per probe worker serves every shard: re-armed for another pinger, window and
  // transport, it must put exactly the frames a freshly constructed emitter would on the wire.
  const std::vector<uint32_t> epochs = {0, 3, 1};
  auto emit = [&](ReportEmitter& emitter) {
    for (PathId slot = 0; slot < 3; ++slot) {
      emitter.OnPath(slot, /*target=*/40 + slot, /*sent=*/20, /*lost=*/slot);
      RttSketch sketch(RttSketch::kDefaultBins);
      sketch.Record(100 + 50 * slot);
      sketch.Record(90);
      emitter.OnPathRtt(slot, 40 + slot, sketch);
    }
    emitter.OnIntraRack(/*target=*/7, /*sent=*/5, /*lost=*/1);
    emitter.Flush();
  };
  auto frames_of = [](LoopbackTransport& transport) {
    std::vector<std::vector<uint8_t>> frames;
    std::vector<uint8_t> frame;
    while (transport.Receive(frame)) {
      frames.push_back(frame);
    }
    return frames;
  };

  LoopbackTransport fresh_wire;
  ReportEmitter fresh(/*pinger=*/5, /*window_id=*/2, /*start_seq=*/4, epochs, fresh_wire,
                      /*batch_observations=*/4);
  emit(fresh);

  LoopbackTransport first_wire;
  LoopbackTransport rearmed_wire;
  ReportEmitter reused(/*pinger=*/8, /*window_id=*/1, /*start_seq=*/0, {}, first_wire,
                       /*batch_observations=*/4);
  emit(reused);
  reused.Rearm(/*pinger=*/5, /*window_id=*/2, /*start_seq=*/4, epochs, rearmed_wire);
  emit(reused);

  const std::vector<std::vector<uint8_t>> expected = frames_of(fresh_wire);
  ASSERT_EQ(expected.size(), 2u);  // 7 observations in batches of 4
  EXPECT_EQ(frames_of(rearmed_wire), expected);
  EXPECT_EQ(frames_of(first_wire).size(), 2u);
  EXPECT_EQ(reused.next_seq(), fresh.next_seq());
  EXPECT_EQ(reused.stats().frames_emitted, fresh.stats().frames_emitted);
  EXPECT_EQ(reused.stats().bytes_emitted, fresh.stats().bytes_emitted);
}

TEST(Collector, DuplicateAndReorderedDeliveryIsIdempotent) {
  const FatTree ft(4);
  Watchdog wd(ft.topology());
  // Two pingers, two frames each, all in window 1.
  std::vector<std::vector<uint8_t>> frames;
  for (NodeId pinger : {ft.Server(0, 0, 0), ft.Server(1, 0, 0)}) {
    for (uint64_t seq = 0; seq < 2; ++seq) {
      ReportFrame frame;
      frame.pinger = pinger;
      frame.window_id = 1;
      frame.seq = seq;
      frame.paths.push_back(
          WirePathDelta{static_cast<PathId>(seq), 0, ft.Server(1, 1, 0), 100, 10});
      frame.paths.push_back(WirePathDelta{3, 0, ft.Server(1, 1, 1), 50, 0});
      frames.push_back({});
      ReportCodec::Encode(frame, frames.back());
    }
  }
  const Observations once = FoldedTotals(frames, 4, wd);

  // Every frame delivered three times, interleaved and reversed: totals must not move.
  std::vector<std::vector<uint8_t>> noisy;
  for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
    noisy.push_back(*it);
  }
  noisy.insert(noisy.end(), frames.begin(), frames.end());
  noisy.insert(noisy.end(), frames.rbegin(), frames.rend());
  CollectorStats stats;
  const Observations replayed = FoldedTotals(noisy, 4, wd, &stats);
  EXPECT_EQ(stats.frames_folded, frames.size());
  EXPECT_EQ(stats.duplicates_dropped, 2 * frames.size());
  ASSERT_EQ(replayed.size(), once.size());
  for (size_t slot = 0; slot < once.size(); ++slot) {
    EXPECT_EQ(replayed[slot].sent, once[slot].sent) << "slot " << slot;
    EXPECT_EQ(replayed[slot].lost, once[slot].lost) << "slot " << slot;
  }
}

TEST(Collector, CorruptFramesFoldNothing) {
  const FatTree ft(4);
  Watchdog wd(ft.topology());
  ReportFrame frame;
  frame.pinger = ft.Server(0, 0, 0);
  frame.window_id = 1;
  frame.seq = 0;
  frame.paths.push_back(WirePathDelta{0, 0, ft.Server(1, 0, 0), 100, 10});
  std::vector<uint8_t> wire;
  ReportCodec::Encode(frame, wire);

  std::vector<std::vector<uint8_t>> corrupted;
  for (size_t i = 0; i < wire.size(); ++i) {
    corrupted.push_back(wire);
    corrupted.back()[i] ^= 0x40;
  }
  CollectorStats stats;
  const Observations totals = FoldedTotals(corrupted, 2, wd, &stats);
  EXPECT_EQ(stats.frames_folded, 0u);
  EXPECT_EQ(stats.decode_errors, corrupted.size());
  for (const PathObservation& obs : totals) {
    EXPECT_EQ(obs.sent, 0);
    EXPECT_EQ(obs.lost, 0);
  }
}

TEST(Collector, StaleWindowDropsCleanly) {
  ObservationStore store;
  store.EnsureSlots(2);
  Collector collector(store);
  collector.BeginWindow(5);

  ReportFrame stale;
  stale.pinger = 1;
  stale.window_id = 4;  // older than the open window
  stale.seq = 0;
  stale.paths.push_back(WirePathDelta{0, 0, 2, 10, 1});
  std::vector<uint8_t> wire;
  ReportCodec::Encode(stale, wire);
  EXPECT_FALSE(collector.Offer(wire));
  EXPECT_EQ(collector.stats().stale_window_dropped, 1u);
  EXPECT_EQ(collector.stats().frames_folded, 0u);
}

TEST(Collector, PumpFoldsAWholeLosslessBacklog) {
  // A backlog of 64 frames waiting on the transport all fold in one pump: a lossless
  // transport stays lossless through PumpFrom.
  ObservationStore store;
  store.EnsureSlots(1);
  Collector collector(store);
  collector.BeginWindow(1);
  LoopbackTransport transport;
  std::vector<uint8_t> wire;
  for (uint64_t seq = 0; seq < 64; ++seq) {
    ReportFrame frame;
    frame.pinger = 1;
    frame.window_id = 1;
    frame.seq = seq;
    frame.paths.push_back(WirePathDelta{0, 0, 2, 10, 1});
    ReportCodec::Encode(frame, wire);
    transport.Send(wire);
  }
  EXPECT_EQ(collector.PumpFrom(transport), 64u);
  const Topology empty_topo("x");
  Watchdog wd(empty_topo);
  const ObservationView totals = store.RunningTotals(1, wd);
  EXPECT_EQ(totals[0].sent, 640);
  EXPECT_EQ(totals[0].lost, 64);
}

TEST(Collector, WireEpochStampsOrphanLikeDirectWrites) {
  // A frame carrying an old epoch (probe happened before a mid-window invalidation, delivery
  // after) must fold to nothing, exactly like a direct record written before the bump.
  ObservationStore store;
  store.EnsureSlots(2);
  const Topology empty_topo("empty");
  Watchdog wd(empty_topo);
  Collector collector(store);
  collector.BeginWindow(1);

  ReportFrame frame;
  frame.pinger = 1;
  frame.window_id = 1;
  frame.seq = 0;
  frame.paths.push_back(WirePathDelta{0, /*epoch=*/0, 2, 100, 10});
  std::vector<uint8_t> wire;
  ReportCodec::Encode(frame, wire);

  const std::vector<PathId> vacated = {0};
  store.InvalidateSlots(vacated);  // epoch 0 -> 1 before the frame arrives
  collector.Offer(wire);
  const ObservationView totals = store.RunningTotals(2, wd);
  EXPECT_EQ(totals[0].sent, 0);
  EXPECT_EQ(totals[0].lost, 0);
}

DetectorSystemOptions ReportTestOptions(double pps) {
  DetectorSystemOptions options;
  options.pmc.alpha = 1;
  options.pmc.beta = 1;
  options.controller.packets_per_second = pps;
  options.segments_per_window = 6;
  options.diagnose_every_segments = 2;
  return options;
}

std::vector<ChurnEvent> MidWindowChurn(const FatTree& ft) {
  std::vector<ChurnEvent> churn;
  churn.push_back(ChurnEvent{8.0, TopologyDelta::LinkDown(ft.AggCoreLink(1, 0, 1))});
  churn.push_back(ChurnEvent{14.0, TopologyDelta::NodeDown(ft.Server(2, 0, 1))});
  churn.push_back(ChurnEvent{23.0, TopologyDelta::LinkUp(ft.AggCoreLink(1, 0, 1))});
  return churn;
}

// The acceptance gate: under the lossless in-process loopback, report-plane streaming windows
// are bit-identical to direct-mode windows — totals, verdicts, alarms, traffic — at 1, 2 and
// 8 probe threads, including mid-window churn (slot invalidation + reuse under live frames).
TEST(ReportPlane, BitIdenticalToDirectModeAt1_2_8Threads) {
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  FailureScenario scenario;
  LinkFailure f;
  f.link = ft.EdgeAggLink(0, 1, 0);
  f.type = FailureType::kRandomPartial;
  f.loss_rate = 0.08;
  scenario.failures.push_back(f);
  const std::vector<ChurnEvent> churn = MidWindowChurn(ft);

  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    auto run = [&](bool report_plane) {
      DetectorSystemOptions options = ReportTestOptions(150);
      options.probe_threads = threads;
      options.report_plane = report_plane;
      DetectorSystem system(routing, options);
      Rng rng(99);
      std::vector<DetectorSystem::StreamingWindowResult> out;
      out.push_back(system.RunWindowStreaming(scenario, churn, rng));
      out.push_back(system.RunWindowStreaming(scenario, {}, rng));
      if (report_plane) {
        // Sanity: the window actually rode the wire.
        EXPECT_NE(system.collector_group(), nullptr);
        if (system.collector_group() != nullptr) {
          const CollectorStats stats = system.collector_group()->stats();
          EXPECT_GT(stats.frames_folded, 0u);
          EXPECT_EQ(stats.decode_errors, 0u);
          EXPECT_EQ(stats.duplicates_dropped, 0u);
        }
      }
      return out;
    };
    const auto direct = run(false);
    const auto report = run(true);
    ASSERT_EQ(direct.size(), report.size());
    for (size_t w = 0; w < direct.size(); ++w) {
      const std::string when =
          "threads=" + std::to_string(threads) + " window=" + std::to_string(w);
      ExpectIdenticalWindows(direct[w].window, report[w].window, when);
      ASSERT_EQ(direct[w].timeline.size(), report[w].timeline.size()) << when;
      for (size_t i = 0; i < direct[w].timeline.size(); ++i) {
        ExpectIdenticalLocalizations(direct[w].timeline[i].localization,
                                     report[w].timeline[i].localization,
                                     when + " boundary " + std::to_string(i));
        EXPECT_EQ(direct[w].timeline[i].server_link_alarms,
                  report[w].timeline[i].server_link_alarms)
            << when << " boundary " << i;
      }
    }
  }
}

// With injected drop and reorder the collector must degrade, never corrupt: every folded
// counter is a real observation (per-slot totals bounded by the lossless run), no decode
// errors or duplicate folds appear, and diagnosis still runs.
TEST(ReportPlane, InjectedDropReorderNeverCorruptsTotals) {
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  FailureScenario scenario;
  LinkFailure f;
  f.link = ft.AggCoreLink(0, 0, 0);
  f.type = FailureType::kFullLoss;
  scenario.failures.push_back(f);

  auto run = [&](double drop) {
    DetectorSystemOptions options = ReportTestOptions(120);
    options.probe_threads = 1;  // deterministic send order for the faulty-channel run
    options.report_plane = true;
    DetectorSystem system(routing, options);
    ImpairmentProfile profile;
    profile.burst_loss_rate = drop;
    profile.burst_length = 1;  // i.i.d. loss
    profile.jitter_ticks = 4;  // reorders frames up to 4 sends apart
    profile.seed = 23;
    system.SetReportTransportFactory([&](size_t) {
      return std::make_unique<ImpairmentTransport>(std::make_unique<LoopbackTransport>(),
                                                   profile);
    });
    Rng rng(5);
    // Diagnose consumes the store at window end, so compare totals before it: run the
    // window's probing via streaming segments, then read the diagnoser's aggregate.
    const auto result = system.RunWindowStreaming(scenario, {}, rng);
    CollectorStats stats = system.collector_group()->stats();
    return std::make_pair(result, stats);
  };

  const auto [lossless, lossless_stats] = run(0.0);
  const auto [faulty, faulty_stats] = run(0.25);

  EXPECT_EQ(faulty_stats.decode_errors, 0u) << "reorder/drop must not corrupt frames";
  EXPECT_EQ(faulty_stats.duplicates_dropped, 0u);
  EXPECT_LT(faulty_stats.frames_folded, lossless_stats.frames_folded)
      << "drop injection folded everything — the fault path did not run";
  // Probing is transport-independent; only aggregation degrades.
  EXPECT_EQ(faulty.window.probes_sent, lossless.window.probes_sent);
  // A full-loss core failure survives 25% report loss: plenty of replicas still arrive.
  bool found = false;
  for (const SuspectLink& s : faulty.window.localization.links) {
    found |= s.link == f.link;
  }
  EXPECT_TRUE(found) << "failure lost in the report plane";
}

// In-memory sink capturing every sealed window.
class CollectingSink : public WindowSink {
 public:
  void OnWindowSealed(const SealedWindow& window) override { windows_.push_back(window); }
  const std::vector<SealedWindow>& windows() const { return windows_; }

 private:
  std::vector<SealedWindow> windows_;
};

// Lossless loopback that keeps a copy of every frame it hands the collector, in order.
class CapturingLoopback final : public Transport {
 public:
  explicit CapturingLoopback(std::vector<std::vector<uint8_t>>& captured)
      : captured_(captured) {}
  bool Send(std::span<const uint8_t> frame) override { return inner_.Send(frame); }
  bool Receive(std::vector<uint8_t>& out) override {
    if (!inner_.Receive(out)) {
      return false;
    }
    captured_.push_back(out);
    return true;
  }
  TransportStats stats() const override { return inner_.stats(); }

 private:
  LoopbackTransport inner_;
  std::vector<std::vector<uint8_t>>& captured_;
};

// A deployed collector closes windows through the same Analyzer as DetectorSystem. Capture
// the frames a report-plane system's collector receives, then feed them into a standalone
// Collector behind Analyzer::Serve, as fleet_runner runs it: windows flip when a newer
// window's frame arrives, and the last one closes when the stream ends. Every window must seal
// what the system's own sink sealed — suspects, server-link alarms, anomalies, and boundary
// deltas.
TEST(DeployedCollector, SealsWhatTheSystemSeals) {
  const FatTree ft(6);  // 3 servers per rack, 2 of them pingers
  const FatTreeRouting routing(ft);
  DetectorSystemOptions options;
  options.pmc.alpha = 1;
  options.pmc.beta = 1;
  options.controller.packets_per_second = 50;
  options.probe_threads = 1;  // one frame order, so store shards open in the same order
  options.report_plane = true;
  options.anomaly = true;
  options.anomaly_options.warmup_boundaries = 2;  // one anomaly boundary per window
  DetectorSystem system(routing, options);
  CollectingSink live;
  system.set_history_sink(&live);
  std::vector<std::vector<uint8_t>> captured;
  system.SetReportTransportFactory(
      [&](size_t) { return std::make_unique<CapturingLoopback>(captured); });

  // Lossy server link towards a rack-mate that only answers probes, so the intra-rack probes
  // raise a server-link alarm without blinding a pinger.
  NodeId victim = kInvalidNode;
  for (const Pinglist& list : system.pinglists()) {
    for (const PinglistEntry& entry : list.entries) {
      bool is_pinger = false;
      for (const Pinglist& other : system.pinglists()) {
        is_pinger |= other.pinger == entry.target_server && !other.entries.empty();
      }
      if (entry.path_id == PinglistEntry::kIntraRackPath && !is_pinger) {
        victim = entry.target_server;
      }
    }
  }
  ASSERT_NE(victim, kInvalidNode);
  FailureScenario failing = GrayLatencyScenario(ft.AggCoreLink(0, 1, 0), 2500.0);
  LinkFailure lossy;
  lossy.link = ft.EdgeAggLink(1, 0, 1);
  lossy.type = FailureType::kRandomPartial;
  lossy.loss_rate = 0.08;
  failing.failures.push_back(lossy);
  LinkFailure server;
  server.link = ft.topology().FindLink(victim, ft.TorOfServer(victim));
  server.type = FailureType::kRandomPartial;
  server.loss_rate = 0.3;
  failing.failures.push_back(server);

  Rng rng(2027);
  for (int w = 0; w < 5; ++w) {
    system.RunWindowStreaming(w < 2 ? FailureScenario{} : failing, {}, rng);
  }
  const Watchdog watchdog(ft.topology());
  Analyzer analyzer(options, system.probe_matrix(), watchdog);
  CollectingSink deployed;
  analyzer.set_sink(&deployed);
  Collector collector(analyzer.diagnoser().store());
  std::vector<uint64_t> closed;
  size_t next = 0;
  analyzer.Serve(
      collector,
      [&](std::vector<uint8_t>& frame) {
        if (next == captured.size()) {
          return false;
        }
        frame = captured[next++];
        return true;
      },
      [&](uint64_t window, const WindowDiagnosis&) { closed.push_back(window); });

  EXPECT_EQ(closed, (std::vector<uint64_t>{1, 2, 3, 4, 5}));
  ASSERT_EQ(deployed.windows().size(), live.windows().size());
  bool suspects = false;
  bool alarms = false;
  bool anomalies = false;
  for (size_t w = 0; w < live.windows().size(); ++w) {
    const SealedWindow& want = live.windows()[w];
    const SealedWindow& got = deployed.windows()[w];
    EXPECT_EQ(got.window_index, want.window_index) << "window " << w;
    ASSERT_EQ(want.boundaries.size(), 1u) << "window " << w;
    EXPECT_EQ(got.boundaries, want.boundaries) << "window " << w;
    suspects |= !want.boundaries[0].suspects.empty();
    alarms |= !want.boundaries[0].alarms.empty();
    anomalies |= !want.boundaries[0].anomalies.empty();
  }
  // Non-vacuous: every sealed field the comparison covers carried something.
  EXPECT_TRUE(suspects);
  EXPECT_TRUE(alarms);
  EXPECT_TRUE(anomalies);
}

// Every agent fleet numbers its frames' windows from 1, so a collector restarted over its
// window log must not seal window 0 again: two Serve runs of the same n-window stream through
// two Analyzers over one history dir read back as windows 0 .. 2n-1.
TEST(DeployedCollector, RestartContinuesWindowNumbering) {
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  DetectorSystemOptions options;
  options.pmc.alpha = 1;
  options.pmc.beta = 1;
  const DetectorSystem system(routing, options);
  const Watchdog watchdog(ft.topology());
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "detector_collector_restart";
  std::filesystem::remove_all(dir);
  options.history_dir = dir.string();

  constexpr uint64_t kWindows = 3;
  std::vector<uint64_t> closed;
  for (int run = 0; run < 2; ++run) {
    Analyzer analyzer(options, system.probe_matrix(), watchdog);
    Collector collector(analyzer.diagnoser().store());
    uint64_t window_id = 0;
    analyzer.Serve(
        collector,
        [&](std::vector<uint8_t>& frame) {
          if (window_id == kWindows) {
            return false;
          }
          ReportFrame report;
          report.pinger = system.pinglists().front().pinger;
          report.window_id = ++window_id;
          report.paths.push_back(WirePathDelta{0, 0, /*target=*/0, 10, 1});
          ReportCodec::Encode(report, frame);
          return true;
        },
        [&](uint64_t id, const WindowDiagnosis&) { closed.push_back(id); });
  }
  const WindowLogReadResult read = ReadWindowLog(dir.string());
  std::filesystem::remove_all(dir);

  EXPECT_EQ(closed, (std::vector<uint64_t>{1, 2, 3, 1, 2, 3}));
  EXPECT_TRUE(read.clean);
  std::vector<uint64_t> indices;
  for (const SealedWindow& window : read.windows) {
    indices.push_back(window.window_index);
  }
  EXPECT_EQ(indices, (std::vector<uint64_t>{0, 1, 2, 3, 4, 5}));
}

TEST(ReportPlane, UdpLoopbackDeliversFrames) {
  std::string error;
  auto collector_side = UdpTransport::Bind(0, &error);
  if (collector_side == nullptr) {
    GTEST_SKIP() << "UDP sockets unavailable in this sandbox (" << error
                 << ") — skipping the UDP loopback test";
  }
  auto agent_side = UdpTransport::Connect(collector_side->port(), &error);
  if (agent_side == nullptr) {
    // Some sandboxes allow bind but refuse connect — surface the factory's reason in the
    // CI log instead of failing a test the environment cannot run.
    GTEST_SKIP() << "UDP connect unavailable in this sandbox (" << error
                 << ") — skipping the UDP loopback test";
  }

  ObservationStore store;
  store.EnsureSlots(8);
  Collector collector(store);
  collector.BeginWindow(1);

  // An emitter batching 3 observations per frame: 7 records -> 3 frames over real UDP.
  ReportEmitter emitter(/*pinger=*/9, /*window_id=*/1, /*start_seq=*/0, store.slot_epochs(),
                        *agent_side, /*batch_observations=*/3);
  for (PathId slot = 0; slot < 7; ++slot) {
    emitter.OnPath(slot, /*target=*/slot + 100, /*sent=*/10 * (slot + 1), /*lost=*/slot);
  }
  emitter.Flush();
  EXPECT_EQ(emitter.stats().frames_emitted, 3u);

  // Localhost UDP is reliable enough in practice, but poll with a deadline regardless.
  size_t folded = 0;
  for (int attempt = 0; attempt < 100 && folded < 3; ++attempt) {
    std::vector<uint8_t> frame;
    if (collector_side->ReceiveTimeout(frame, 50) && collector.Offer(frame)) {
      ++folded;
    }
  }
  ASSERT_EQ(folded, 3u) << "UDP frames did not arrive within the deadline";
  const Topology empty_topo("none");
  Watchdog wd(empty_topo);
  const ObservationView totals = store.RunningTotals(8, wd);
  for (PathId slot = 0; slot < 7; ++slot) {
    EXPECT_EQ(totals[static_cast<size_t>(slot)].sent, 10 * (slot + 1)) << "slot " << slot;
    EXPECT_EQ(totals[static_cast<size_t>(slot)].lost, slot) << "slot " << slot;
  }
}

// A dead collector over real sockets: once the bound socket closes, the kernel answers the
// agent's datagrams with port-unreachable, and each such error fails the agent's next send —
// so a connected UdpTransport reports the dead collector instead of swallowing it, bare or
// behind an empty impairment profile (fleet_runner's agent shape).
TEST(ReportPlane, UdpSendFailsAfterCollectorCloses) {
  std::string error;
  auto collector_side = UdpTransport::Bind(0, &error);
  if (collector_side == nullptr) {
    GTEST_SKIP() << "UDP sockets unavailable in this sandbox (" << error
                 << ") — skipping the UDP send-failure test";
  }
  auto agent_side = UdpTransport::Connect(collector_side->port(), &error);
  if (agent_side == nullptr) {
    GTEST_SKIP() << "UDP connect unavailable in this sandbox (" << error
                 << ") — skipping the UDP send-failure test";
  }
  auto impaired_wire = UdpTransport::Connect(collector_side->port(), &error);
  ASSERT_NE(impaired_wire, nullptr) << error;
  ImpairmentTransport impaired_side(std::move(impaired_wire), ImpairmentProfile{});
  collector_side.reset();  // the collector process dies

  const uint8_t frame[4] = {1, 2, 3, 4};
  for (Transport* agent : {static_cast<Transport*>(agent_side.get()),
                           static_cast<Transport*>(&impaired_side)}) {
    int failed = 0;
    for (int i = 0; i < 10; ++i) {
      failed += agent->Send(frame) ? 0 : 1;
    }
    EXPECT_GE(failed, 1) << "10 sends to a closed port all reported success"
                         << (agent == &impaired_side ? " through the impairment decorator" : "");
  }
}

}  // namespace
}  // namespace detector
