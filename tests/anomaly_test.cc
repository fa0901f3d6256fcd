// Anomaly-plane tests (PR 10): the RTT sketch's integer bin mapping and merge algebra
// (associative, commutative, signed retraction — the properties the shard/thread and
// report-plane bit-identity gates rest on), quantile containment against a sorted oracle,
// the codec's RTT extension records (round trip, every truncation and single-byte corruption
// rejected with the output untouched, and the old-decoder/new-emitter skip-and-count path),
// EwmaBaseline band semantics, AnomalyEngine fusion (sustained latency excursions localize
// through PLL; negative deltas re-base instead of alarming), the store's running RTT sketches
// against their snapshot reference under watchdog flips and slot invalidation, sealed-window
// anomaly persistence and the forensic anomaly queries, and full-window bit-identity across
// probe threads and direct-vs-report planes with the anomaly plane on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/anomaly/anomaly_engine.h"
#include "src/anomaly/ewma_baseline.h"
#include "src/anomaly/rtt_sketch.h"
#include "src/common/rng.h"
#include "src/detector/observation_store.h"
#include "src/detector/system.h"
#include "src/history/query.h"
#include "src/history/window_log.h"
#include "src/history/window_sink.h"
#include "src/pmc/probe_matrix.h"
#include "src/report/codec.h"
#include "src/routing/fattree_routing.h"
#include "src/sim/anomaly_scenarios.h"
#include "src/sim/watchdog.h"
#include "src/topo/fattree.h"
#include "src/topo/topology.h"
#include "tests/window_equality.h"

namespace detector {
namespace {

// ---- RttSketch: bin mapping ---------------------------------------------------------------

TEST(RttSketch, EveryValueLandsInItsBin) {
  const int bins = RttSketch::kDefaultBins;
  std::vector<int64_t> values = {0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 100, 1000, 4096, 65537};
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    values.push_back(static_cast<int64_t>(rng.NextBounded(1u << 22)));
  }
  for (const int64_t v : values) {
    const int bin = RttSketch::BinOf(v, bins);
    ASSERT_GE(bin, 0);
    ASSERT_LT(bin, bins);
    if (bin < bins - 1) {
      EXPECT_GE(v, RttSketch::BinLowerUs(bin)) << "value " << v;
      EXPECT_LT(v, RttSketch::BinUpperUs(bin, bins)) << "value " << v;
    } else {
      EXPECT_GE(v, RttSketch::BinLowerUs(bin)) << "value " << v;
    }
    // A bin's lower bound maps back to the same bin.
    EXPECT_EQ(RttSketch::BinOf(RttSketch::BinLowerUs(bin), bins), bin);
  }
  // 4 sub-bins per octave: relative bin width is at most 25% past the unary prefix.
  for (int bin = RttSketch::kSubBins; bin < bins - 1; ++bin) {
    const int64_t lower = RttSketch::BinLowerUs(bin);
    const int64_t width = RttSketch::BinUpperUs(bin, bins) - lower;
    EXPECT_LE(width * RttSketch::kSubBins, lower) << "bin " << bin;
  }
}

TEST(RttSketch, ClampsAtBothEnds) {
  const int bins = RttSketch::kDefaultBins;
  EXPECT_EQ(RttSketch::BinOf(-5, bins), 0);
  EXPECT_EQ(RttSketch::BinOf(INT64_MAX, bins), bins - 1);
  EXPECT_EQ(RttSketch::BinUpperUs(bins - 1, bins), INT64_MAX);

  RttSketch sketch(bins);
  sketch.Record(-1);
  sketch.Record(INT64_MAX);
  sketch.Record(INT64_MAX / 2);
  EXPECT_EQ(sketch.counts()[0], 1);
  EXPECT_EQ(sketch.counts()[static_cast<size_t>(bins - 1)], 2);
  EXPECT_EQ(sketch.total(), 3);
  EXPECT_EQ(sketch.Quantile(1.0), RttSketch::BinLowerUs(bins - 1));
}

// ---- RttSketch: merge algebra -------------------------------------------------------------

RttSketch RandomSketch(Rng& rng, int samples) {
  RttSketch sketch(RttSketch::kDefaultBins);
  for (int i = 0; i < samples; ++i) {
    sketch.Record(static_cast<int64_t>(rng.NextBounded(1u << 20)));
  }
  return sketch;
}

TEST(RttSketch, MergeIsAssociativeCommutativeAndSigned) {
  Rng rng(7);
  const RttSketch a = RandomSketch(rng, 100);
  const RttSketch b = RandomSketch(rng, 37);
  const RttSketch c = RandomSketch(rng, 255);

  RttSketch ab_c = a;
  ab_c.Merge(b);
  ab_c.Merge(c);
  RttSketch a_bc = b;
  a_bc.Merge(c);
  a_bc.Merge(a);
  EXPECT_EQ(ab_c, a_bc);  // (a+b)+c == a+(b+c), and any fold order

  RttSketch ba = b;
  ba.Merge(a);
  RttSketch ab = a;
  ab.Merge(b);
  EXPECT_EQ(ab, ba);

  // Retraction inverts exactly: (a+b)-b == a, bit for bit.
  RttSketch retracted = ab;
  retracted.Merge(b, /*sign=*/-1);
  EXPECT_EQ(retracted, a);
}

TEST(RttSketch, EmptyIsDistinctFromAllocatedZero) {
  const RttSketch empty;
  const RttSketch zero(RttSketch::kDefaultBins);
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(zero.empty());
  EXPECT_FALSE(empty == zero);
  EXPECT_EQ(empty.Quantile(0.5), 0);

  // Merging an empty sketch is a no-op; merging into one adopts the bin count.
  RttSketch target = zero;
  target.Merge(empty);
  EXPECT_EQ(target, zero);
  RttSketch adopt;
  RttSketch samples(16);
  samples.Record(100);
  adopt.Merge(samples);
  EXPECT_EQ(adopt, samples);
  EXPECT_EQ(adopt.num_bins(), 16);
}

TEST(RttSketch, QuantileBracketsTheSortedOracle) {
  Rng rng(42);
  RttSketch sketch(RttSketch::kDefaultBins);
  std::vector<int64_t> samples;
  for (int i = 0; i < 1000; ++i) {
    // Bimodal: a tight mode near 100us plus a heavy tail, like a congested queue.
    const int64_t v = (i % 10 == 0)
                          ? static_cast<int64_t>(1000 + rng.NextBounded(100000))
                          : static_cast<int64_t>(80 + rng.NextBounded(60));
    samples.push_back(v);
    sketch.Record(v);
  }
  std::sort(samples.begin(), samples.end());
  for (const double q : {0.1, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    const size_t rank = static_cast<size_t>(
        std::max<int64_t>(1, static_cast<int64_t>(q * static_cast<double>(samples.size()))));
    const int64_t oracle = samples[rank - 1];
    const int bin = RttSketch::BinOf(oracle, sketch.num_bins());
    // The sketch returns the lower bound of the oracle's bin: the true quantile lies in
    // [Quantile(q), BinUpperUs(bin)) — within one sub-bin (<= 25% relative error).
    EXPECT_EQ(sketch.Quantile(q), RttSketch::BinLowerUs(bin)) << "q=" << q;
    EXPECT_LE(sketch.Quantile(q), oracle) << "q=" << q;
    EXPECT_LT(oracle, RttSketch::BinUpperUs(bin, sketch.num_bins())) << "q=" << q;
  }
}

// ---- Codec: RTT extension records ---------------------------------------------------------

ReportFrame RttFrame() {
  ReportFrame frame;
  frame.pinger = 42;
  frame.window_id = 7;
  frame.seq = 3;
  frame.paths.push_back(WirePathDelta{5, 0, 101, 120, 4});
  frame.paths.push_back(WirePathDelta{700, 2, 99, 64, 0});
  frame.intra.push_back(WireIntraDelta{43, 30, 2});

  RttSketch dense(RttSketch::kDefaultBins);
  for (int i = 0; i < 50; ++i) {
    dense.Record(90 + 7 * i);
  }
  frame.rtt.push_back(WireRttDelta{5, 0, 101, dense});

  RttSketch sparse(16);  // non-default bin count, gap-coded non-zero runs at both ends
  sparse.AddCount(0, 3);
  sparse.AddCount(15, 2);
  frame.rtt.push_back(WireRttDelta{700, 2, 99, sparse});
  return frame;
}

TEST(AnomalyCodec, RttFrameRoundTrip) {
  const ReportFrame frame = RttFrame();
  std::vector<uint8_t> wire;
  ReportCodec::Encode(frame, wire);
  ReportFrame decoded;
  ASSERT_EQ(ReportCodec::Decode(wire, decoded), DecodeStatus::kOk);
  EXPECT_EQ(decoded, frame);
  EXPECT_EQ(decoded.unknown_records, 0u);
}

TEST(AnomalyCodec, LossOnlyFramesCarryNoExtSection) {
  // A frame without RTT records must stay byte-identical to the pre-extension layout: an
  // "old" decoder (max_known_ext_type = 0) accepts it without any unknown-record tally.
  ReportFrame frame = RttFrame();
  frame.rtt.clear();
  std::vector<uint8_t> wire;
  ReportCodec::Encode(frame, wire);
  ReportFrame decoded;
  ASSERT_EQ(ReportCodec::Decode(wire, decoded, ReportKey{}, /*max_known_ext_type=*/0),
            DecodeStatus::kOk);
  EXPECT_EQ(decoded, frame);
  EXPECT_EQ(decoded.unknown_records, 0u);
}

TEST(AnomalyCodec, EveryTruncationOfAnRttFrameIsAnError) {
  std::vector<uint8_t> wire;
  ReportCodec::Encode(RttFrame(), wire);
  for (size_t len = 0; len < wire.size(); ++len) {
    ReportFrame decoded;
    decoded.pinger = -7;  // sentinel: decode must not touch the output on error
    const DecodeStatus status =
        ReportCodec::Decode(std::span<const uint8_t>(wire.data(), len), decoded);
    EXPECT_NE(status, DecodeStatus::kOk) << "prefix of length " << len << " decoded";
    EXPECT_EQ(decoded.pinger, -7) << "output mutated on error at length " << len;
    EXPECT_TRUE(decoded.rtt.empty()) << "sketches leaked on error at length " << len;
  }
}

TEST(AnomalyCodec, EverySingleByteCorruptionOfAnRttFrameIsAnError) {
  std::vector<uint8_t> wire;
  ReportCodec::Encode(RttFrame(), wire);
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

TEST(AnomalyCodec, OldDecoderSkipsAndCountsUnknownRecords) {
  // Mixed-version rollout: a new emitter's frame reaches a collector that predates the RTT
  // extension. The loss records must fold; the extension records are skipped over their
  // declared length and counted, never rejected.
  const ReportFrame frame = RttFrame();
  std::vector<uint8_t> wire;
  ReportCodec::Encode(frame, wire);
  ReportFrame decoded;
  ASSERT_EQ(ReportCodec::Decode(wire, decoded, ReportKey{}, /*max_known_ext_type=*/0),
            DecodeStatus::kOk);
  EXPECT_EQ(decoded.paths, frame.paths);
  EXPECT_EQ(decoded.intra, frame.intra);
  EXPECT_TRUE(decoded.rtt.empty());
  EXPECT_EQ(decoded.unknown_records, frame.rtt.size());
}

// ---- EwmaBaseline -------------------------------------------------------------------------

TEST(EwmaBaseline, NoExcursionsBeforeWarmup) {
  EwmaBaseline b(/*alpha=*/0.2, /*deviations=*/4.0, /*min_inflation=*/1.25, /*warmup=*/3);
  EXPECT_FALSE(b.Excursion(1e9));
  b.Observe(100.0);
  EXPECT_FALSE(b.Excursion(1e9));
  b.Observe(100.0);
  EXPECT_FALSE(b.Excursion(1e9));
  b.Observe(100.0);
  EXPECT_TRUE(b.warmed_up());
  EXPECT_TRUE(b.Excursion(1e9));
}

TEST(EwmaBaseline, MultiplicativeBandGuardsQuietBaselines) {
  // A perfectly quiet signal collapses the additive band to zero width; the multiplicative
  // band must still demand a real inflation.
  EwmaBaseline b(0.2, 4.0, 1.25, 3);
  for (int i = 0; i < 5; ++i) {
    b.Observe(100.0);
  }
  EXPECT_DOUBLE_EQ(b.mean(), 100.0);
  EXPECT_DOUBLE_EQ(b.deviation(), 0.0);
  EXPECT_FALSE(b.Excursion(101.0));  // above mean + 4 dev, below mean x 1.25
  EXPECT_FALSE(b.Excursion(124.0));
  EXPECT_TRUE(b.Excursion(126.0));
}

TEST(EwmaBaseline, FloorSuppressesTinyValues) {
  // A zero-mean baseline (a loss-free link) passes both bands for any positive value; the
  // floor keeps deltas too small to act on from alarming.
  EwmaBaseline b(0.2, 4.0, 1.25, 3);
  for (int i = 0; i < 4; ++i) {
    b.Observe(0.0);
  }
  EXPECT_FALSE(b.Excursion(0.001, /*floor=*/0.002));
  EXPECT_TRUE(b.Excursion(0.01, /*floor=*/0.002));
  EXPECT_FALSE(b.Excursion(1000.0, /*floor=*/2000.0));
}

// ---- AnomalyEngine ------------------------------------------------------------------------

// Two monitored links, one single-link path each — the minimal matrix on which flagged paths
// localize unambiguously.
struct TwoLinkNet {
  Topology topo{"two-link"};
  ProbeMatrix matrix;

  TwoLinkNet() : matrix(MakeMatrix(topo)) {}

  static ProbeMatrix MakeMatrix(Topology& topo) {
    std::vector<NodeId> nodes;
    for (int i = 0; i < 3; ++i) {
      nodes.push_back(topo.AddNode(NodeKind::kTor, 0, i, "n" + std::to_string(i)));
    }
    topo.AddLink(nodes[0], nodes[1], 1);
    topo.AddLink(nodes[1], nodes[2], 1);
    PathStore store;
    const LinkId path0[] = {0};
    const LinkId path1[] = {1};
    store.Add(0, 1, path0);
    store.Add(0, 2, path1);
    return ProbeMatrix(std::move(store), LinkIndex::ForMonitored(topo));
  }
};

// Cumulative running totals fed boundary by boundary, like the store produces them.
struct RunningFeed {
  Observations totals{2};
  std::vector<RttSketch> rtt{2};

  // Adds one boundary worth of traffic: `packets` probes per path, no loss, `samples` RTT
  // draws at `us0` on path 0 and `us1` on path 1.
  void Advance(int64_t packets, int samples, int64_t us0, int64_t us1) {
    for (size_t slot = 0; slot < 2; ++slot) {
      totals[slot].sent += packets;
      if (rtt[slot].empty()) {
        rtt[slot] = RttSketch(RttSketch::kDefaultBins);
      }
      for (int i = 0; i < samples; ++i) {
        rtt[slot].Record(slot == 0 ? us0 : us1);
      }
    }
  }
};

TEST(AnomalyEngine, SustainedLatencyShiftLocalizesTheLink) {
  TwoLinkNet net;
  AnomalyEngine engine;  // defaults: warmup 3, horizon 2
  RunningFeed feed;

  // Clean boundaries: both paths at ~100us. No anomalies during or after warmup.
  for (int boundary = 0; boundary < 5; ++boundary) {
    feed.Advance(400, 8, 100, 100);
    EXPECT_TRUE(engine.Observe(net.matrix, feed.totals, feed.rtt).empty())
        << "boundary " << boundary;
  }

  // Path 0's RTT shifts to 5ms with zero loss — a pure gray failure. The first excursive
  // boundary starts the run; the second reaches the horizon and flags.
  feed.Advance(400, 8, 5000, 100);
  EXPECT_TRUE(engine.Observe(net.matrix, feed.totals, feed.rtt).empty());
  feed.Advance(400, 8, 5000, 100);
  const std::vector<LinkAnomaly> anomalies = engine.Observe(net.matrix, feed.totals, feed.rtt);
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].link, 0);
  EXPECT_EQ(anomalies[0].signal, kAnomalySignalLatency);
  EXPECT_GE(anomalies[0].sustained, 2);
  EXPECT_GT(anomalies[0].score, 0.0);
  EXPECT_EQ(std::string(AnomalySignalName(anomalies[0].signal)), "latency");

  // Back to normal: the excursion run breaks and the alarm clears.
  feed.Advance(400, 8, 100, 100);
  feed.Advance(400, 8, 100, 100);
  EXPECT_TRUE(engine.Observe(net.matrix, feed.totals, feed.rtt).empty());
}

TEST(AnomalyEngine, BeginWindowRebasesWithoutForgettingBaselines) {
  TwoLinkNet net;
  AnomalyEngine engine;
  RunningFeed feed;
  for (int boundary = 0; boundary < 5; ++boundary) {
    feed.Advance(400, 8, 100, 100);
    engine.Observe(net.matrix, feed.totals, feed.rtt);
  }

  // The store clears between aggregation windows: totals restart from zero. BeginWindow
  // re-bases the engine's previous-boundary totals so the first boundary of the new window
  // is an ordinary delta, not a giant negative one — and the learned baselines survive, so
  // a shift right after the window boundary still only needs `horizon` boundaries to flag.
  engine.BeginWindow();
  RunningFeed fresh;
  fresh.Advance(400, 8, 5000, 100);
  EXPECT_TRUE(engine.Observe(net.matrix, fresh.totals, fresh.rtt).empty());
  fresh.Advance(400, 8, 5000, 100);
  const std::vector<LinkAnomaly> anomalies =
      engine.Observe(net.matrix, fresh.totals, fresh.rtt);
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_EQ(anomalies[0].link, 0);
}

TEST(AnomalyEngine, NegativeDeltaResetsTheSlotInsteadOfAlarming) {
  TwoLinkNet net;
  AnomalyEngine engine;
  RunningFeed feed;
  for (int boundary = 0; boundary < 5; ++boundary) {
    feed.Advance(400, 8, 100, 100);
    engine.Observe(net.matrix, feed.totals, feed.rtt);
  }
  // Totals that shrink (a watchdog retraction, or a missed window boundary) are not
  // observations; the slot re-bases silently.
  feed.totals[0].sent -= 1000;
  EXPECT_TRUE(engine.Observe(net.matrix, feed.totals, feed.rtt).empty());
  feed.Advance(400, 8, 100, 100);
  EXPECT_TRUE(engine.Observe(net.matrix, feed.totals, feed.rtt).empty());
}

// ---- ObservationStore: running RTT sketches vs the snapshot reference ---------------------

std::vector<RttSketch> SnapshotVector(const ObservationStore& store, size_t num_slots,
                                      const Watchdog& watchdog) {
  return store.RttSnapshot(num_slots, watchdog);
}

void ExpectRttAgreement(ObservationStore& store, size_t num_slots, const Watchdog& watchdog,
                        const std::string& when) {
  store.RunningTotals(num_slots, watchdog);  // folds pending records
  const std::span<const RttSketch> running = store.RttRunningTotals();
  const std::vector<RttSketch> snapshot = SnapshotVector(store, num_slots, watchdog);
  ASSERT_EQ(running.size(), snapshot.size()) << when;
  for (size_t i = 0; i < snapshot.size(); ++i) {
    EXPECT_EQ(running[i], snapshot[i]) << when << " slot " << i;
  }
}

TEST(ObservationStoreRtt, RunningSketchesMatchSnapshotUnderFlipsAndInvalidation) {
  // Three server nodes so the watchdog can flag pingers 0/1 and target 2.
  Topology topo("rtt-store");
  for (int i = 0; i < 3; ++i) {
    topo.AddNode(NodeKind::kServer, 0, i, "s" + std::to_string(i));
  }
  Watchdog watchdog(topo);
  ObservationStore store;
  store.EnsureSlots(4);

  RttSketch s0(RttSketch::kDefaultBins);
  s0.Record(100);
  s0.Record(140);
  RttSketch s1(RttSketch::kDefaultBins);
  s1.Record(90);

  ObservationStore::Shard& shard_a = store.OpenShard(/*pinger=*/0);
  ObservationStore::Shard& shard_b = store.OpenShard(/*pinger=*/1);
  shard_a.RecordPathWithRtt(0, /*target=*/2, 100, 1, s0);
  shard_b.RecordPathWithRtt(0, /*target=*/2, 100, 0, s1);  // replica: sketches merge
  shard_b.RecordPathWithRtt(1, /*target=*/2, 100, 0, s1);
  ExpectRttAgreement(store, 4, watchdog, "after initial records");

  // A watchdog flip retracts the flagged pinger's sketches together with its counters...
  watchdog.MarkDown(1);
  ExpectRttAgreement(store, 4, watchdog, "pinger 1 down");
  // ...and recovery re-adds them, bit-identically.
  watchdog.MarkUp(1);
  ExpectRttAgreement(store, 4, watchdog, "pinger 1 recovered");

  // Slot invalidation orphans the slot's sketch with its counters.
  const PathId stale[] = {0};
  store.InvalidateSlots(stale);
  ExpectRttAgreement(store, 4, watchdog, "slot 0 invalidated");

  // A report-plane record stamped with the pre-invalidation epoch orphans instead of folding;
  // one stamped with the current epoch folds.
  RttSketch late(RttSketch::kDefaultBins);
  late.Record(77);
  shard_a.RecordPathRttAtEpoch(0, /*epoch=*/0, /*target=*/2, late);
  shard_a.RecordPathRttAtEpoch(1, store.SlotEpoch(1), /*target=*/2, late);
  ExpectRttAgreement(store, 4, watchdog, "stale and current epoch records");
  const std::vector<RttSketch> merged = SnapshotVector(store, 4, watchdog);
  EXPECT_TRUE(merged[0].empty() || merged[0].total() == 0);  // stale record orphaned
  EXPECT_EQ(merged[1].total(), s1.total() + late.total());   // current record folded
}

// ---- Sealed windows, the log record, and the forensic queries -----------------------------

SealedWindow AnomalyWindow(uint64_t index, std::vector<LinkAnomaly> anomalies) {
  SealedWindow w;
  w.window_index = index;
  w.num_slots = 8;
  w.probes_sent = 1000;
  w.bytes_sent = 64000;
  SealedBoundary b;
  b.segment = 4;
  b.time_seconds = 30.0;
  b.deltas.push_back(SealedDelta{1, 500, 0});
  b.anomalies = std::move(anomalies);
  w.boundaries.push_back(b);
  return w;
}

TEST(AnomalyHistory, SealedAnomaliesSurviveTheLogRecord) {
  const ReportKey key;
  const SealedWindow w = AnomalyWindow(
      9, {LinkAnomaly{3, kAnomalySignalLatency, 0.75, 4},
          LinkAnomaly{5, static_cast<uint8_t>(kAnomalySignalLoss | kAnomalySignalLatency),
                      1.0, 2}});
  std::vector<uint8_t> bytes;
  EncodeWindowRecord(w, key, bytes);
  size_t pos = 0;
  SealedWindow back;
  ASSERT_EQ(DecodeWindowRecord(bytes, pos, key, back), WindowLogStatus::kOk);
  EXPECT_EQ(pos, bytes.size());
  EXPECT_EQ(back, w);
  ASSERT_EQ(back.boundaries.size(), 1u);
  EXPECT_EQ(back.boundaries[0].anomalies, w.boundaries[0].anomalies);
}

TEST(AnomalyHistory, QueriesRollUpPerWindowAndPerLink)
{
  std::vector<SealedWindow> windows;
  windows.push_back(AnomalyWindow(1, {}));
  windows.push_back(AnomalyWindow(2, {LinkAnomaly{3, kAnomalySignalLatency, 0.5, 2}}));
  // Window 3 names link 3 at two boundaries: still one flagged window.
  SealedWindow w3 = AnomalyWindow(3, {LinkAnomaly{3, kAnomalySignalLatency, 0.9, 5}});
  SealedBoundary extra;
  extra.segment = 8;
  extra.time_seconds = 60.0;
  extra.anomalies.push_back(LinkAnomaly{3, kAnomalySignalLoss, 0.4, 1});
  extra.anomalies.push_back(LinkAnomaly{7, kAnomalySignalLoss, 0.6, 3});
  w3.boundaries.push_back(extra);
  windows.push_back(w3);

  const QueryEngine engine(std::move(windows));
  const auto timeline = engine.LinkAnomalyTimeline(3);
  ASSERT_EQ(timeline.size(), 3u);
  EXPECT_FALSE(timeline[0].flagged);
  EXPECT_TRUE(timeline[1].flagged);
  EXPECT_EQ(timeline[1].signal, kAnomalySignalLatency);
  EXPECT_TRUE(timeline[2].flagged);
  EXPECT_EQ(timeline[2].signal, kAnomalySignalLoss | kAnomalySignalLatency);
  EXPECT_EQ(timeline[2].boundaries_flagged, 2u);
  EXPECT_EQ(timeline[2].max_sustained, 5);
  EXPECT_DOUBLE_EQ(timeline[2].max_score, 0.9);

  const auto top = engine.TopAnomalies();
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].link, 3);
  EXPECT_EQ(top[0].windows_flagged, 2u);
  EXPECT_EQ(top[0].first_window, 2u);
  EXPECT_EQ(top[0].last_window, 3u);
  EXPECT_EQ(top[1].link, 7);
  EXPECT_EQ(top[1].windows_flagged, 1u);
}

// ---- End to end: bit-identity across threads and planes, retention carries anomalies ------

// In-memory sink capturing every sealed window, like the benches use.
class CollectingSink : public WindowSink {
 public:
  void OnWindowSealed(const SealedWindow& window) override { windows_.push_back(window); }
  const std::vector<SealedWindow>& windows() const { return windows_; }

 private:
  std::vector<SealedWindow> windows_;
};

struct AnomalyRun {
  std::vector<DetectorSystem::StreamingWindowResult> results;
  std::vector<SealedWindow> sealed;
  std::vector<RttSketch> final_rtt;
};

AnomalyRun RunGraySequence(const FatTreeRouting& routing, LinkId gray, size_t threads,
                           bool report_plane, size_t collectors = 1, size_t lanes = 1) {
  DetectorSystemOptions options;
  options.controller.packets_per_second = 50;
  options.segments_per_window = 4;
  options.diagnose_every_segments = 1;
  options.probe_threads = threads;
  options.report_plane = report_plane;
  options.report_collectors = collectors;
  options.report_ingest_shards = lanes;
  options.anomaly = true;
  DetectorSystem system(routing, options);
  CollectingSink sink;
  system.set_history_sink(&sink);

  AnomalyRun run;
  Rng rng(2026);
  const FailureScenario clean;
  const FailureScenario scenario = GrayLatencyScenario(gray, /*added_delay_us=*/2500.0);
  for (int w = 0; w < 4; ++w) {
    run.results.push_back(system.RunWindowStreaming(w < 2 ? clean : scenario, {}, rng));
  }
  run.sealed = sink.windows();
  const std::span<const RttSketch> rtt = system.last_window_rtt_totals();
  run.final_rtt.assign(rtt.begin(), rtt.end());
  return run;
}

TEST(AnomalyEndToEnd, WindowsBitIdenticalAcrossThreadsAndPlanes) {
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  Rng pick(99);
  const LinkId gray = SampleMonitoredLink(ft.topology(), pick);

  const AnomalyRun reference = RunGraySequence(routing, gray, /*threads=*/1, false);
  const AnomalyRun threaded = RunGraySequence(routing, gray, /*threads=*/2, false);
  const AnomalyRun reported = RunGraySequence(routing, gray, /*threads=*/1, true);
  // A multi-lane fabric at 4 threads: one ingest pump drains all four lanes while three
  // workers probe.
  const AnomalyRun fabric = RunGraySequence(routing, gray, /*threads=*/4, true,
                                            /*collectors=*/2, /*lanes=*/2);

  // Non-vacuous: the gray windows must actually raise anomalies naming the gray link, and
  // the merged sketches must carry samples.
  bool gray_named = false;
  for (const auto& result : reference.results) {
    for (const auto& diagnosis : result.timeline) {
      for (const LinkAnomaly& anomaly : diagnosis.anomalies) {
        gray_named = gray_named || (anomaly.link == gray &&
                                    (anomaly.signal & kAnomalySignalLatency) != 0);
      }
    }
  }
  EXPECT_TRUE(gray_named);
  int64_t samples = 0;
  for (const RttSketch& sketch : reference.final_rtt) {
    samples += sketch.total();
  }
  EXPECT_GT(samples, 0);

  const std::pair<const AnomalyRun*, std::string> others[] = {
      {&threaded, "2 threads"},
      {&reported, "report plane"},
      {&fabric, "report plane, 2 collectors x 2 lanes, 4 threads"}};
  for (const auto& [other, which] : others) {
    ASSERT_EQ(other->results.size(), reference.results.size()) << which;
    for (size_t w = 0; w < reference.results.size(); ++w) {
      const std::string when = which + " window " + std::to_string(w);
      ExpectIdenticalWindows(reference.results[w].window, other->results[w].window, when);
      ASSERT_EQ(other->results[w].timeline.size(), reference.results[w].timeline.size())
          << when;
      for (size_t t = 0; t < reference.results[w].timeline.size(); ++t) {
        EXPECT_EQ(other->results[w].timeline[t].anomalies,
                  reference.results[w].timeline[t].anomalies)
            << when << " boundary " << t;
      }
    }
    EXPECT_EQ(other->final_rtt, reference.final_rtt) << which;
    // The sealed windows (anomalies included) are bit-identical too — retention records the
    // same forensic timeline whichever execution shape produced it.
    EXPECT_EQ(other->sealed, reference.sealed) << which;
  }

  // And the sealed anomalies flow into the forensic queries: the gray link tops the rollup.
  QueryEngine engine(reference.sealed);
  const auto top = engine.TopAnomalies();
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].link, gray);
}

}  // namespace
}  // namespace detector
