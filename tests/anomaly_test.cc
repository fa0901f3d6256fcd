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
#include <bit>
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
#include "src/report/collector.h"
#include "src/routing/fattree_routing.h"
#include "src/sim/anomaly_scenarios.h"
#include "src/sim/watchdog.h"
#include "src/topo/fattree.h"
#include "src/topo/topology.h"
#include "tests/store_reference.h"
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
  EXPECT_EQ(sketch.Count(0), 1);
  EXPECT_EQ(sketch.Count(bins - 1), 2);
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

// ---- RttSketch: sparse storage against the dense reference --------------------------------

// The dense layout RttSketch used before it went sparse: one int64 per bin. Kept as the
// reference the sparse sketch must match count for count.
class DenseSketch {
 public:
  DenseSketch() = default;
  explicit DenseSketch(int num_bins) : counts_(static_cast<size_t>(num_bins), 0) {}

  bool empty() const { return counts_.empty(); }
  int num_bins() const { return static_cast<int>(counts_.size()); }
  int64_t total() const { return total_; }
  int64_t Count(int bin) const { return counts_[static_cast<size_t>(bin)]; }

  void Record(int64_t rtt_us) { AddCount(RttSketch::BinOf(rtt_us, num_bins()), 1); }

  void AddCount(int bin, int64_t count) {
    counts_[static_cast<size_t>(bin)] += count;
    total_ += count;
  }

  void Merge(const DenseSketch& other, int64_t sign) {
    if (other.counts_.empty()) return;
    if (counts_.empty()) counts_.resize(other.counts_.size(), 0);
    for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += sign * other.counts_[i];
    total_ += sign * other.total_;
    if (total_ == 0 && std::all_of(counts_.begin(), counts_.end(),
                                   [](int64_t c) { return c == 0; })) {
      counts_.clear();
    }
  }

  int64_t Quantile(double q) const {
    if (total_ <= 0) return 0;
    const double clamped = std::clamp(q, 0.0, 1.0);
    int64_t rank = static_cast<int64_t>(clamped * static_cast<double>(total_));
    if (static_cast<double>(rank) < clamped * static_cast<double>(total_)) ++rank;
    rank = std::clamp<int64_t>(rank, 1, total_);
    int64_t cumulative = 0;
    for (size_t bin = 0; bin < counts_.size(); ++bin) {
      cumulative += counts_[bin];
      if (cumulative >= rank) return RttSketch::BinLowerUs(static_cast<int>(bin));
    }
    return RttSketch::BinLowerUs(num_bins() - 1);
  }

 private:
  std::vector<int64_t> counts_;
  int64_t total_ = 0;
};

void ExpectMatchesDense(const RttSketch& sparse, const DenseSketch& dense,
                        const std::string& where) {
  ASSERT_EQ(sparse.empty(), dense.empty()) << where;
  ASSERT_EQ(sparse.num_bins(), dense.num_bins()) << where;
  ASSERT_EQ(sparse.total(), dense.total()) << where;
  for (int bin = 0; bin < dense.num_bins(); ++bin) {
    ASSERT_EQ(sparse.Count(bin), dense.Count(bin)) << where << " bin " << bin;
  }
  // Canonical storage: exactly the non-zero bins, ascending — so equal counts compare equal.
  int prev = -1;
  size_t nonzero = 0;
  for (const RttSketch::BinCount& b : sparse.bins()) {
    ASSERT_GT(b.bin, prev) << where;
    ASSERT_NE(b.count, 0) << where << " bin " << b.bin;
    prev = b.bin;
  }
  for (int bin = 0; bin < dense.num_bins(); ++bin) nonzero += dense.Count(bin) != 0;
  ASSERT_EQ(sparse.bins().size(), nonzero) << where;
  for (const double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    ASSERT_EQ(sparse.Quantile(q), dense.Quantile(q)) << where << " q=" << q;
  }
}

TEST(RttSketch, SparseMatchesDenseReferenceUnderRandomOps) {
  for (const int bins : {16, RttSketch::kDefaultBins}) {
    Rng rng(static_cast<uint64_t>(1000 + bins));
    constexpr size_t kPool = 4;
    std::vector<RttSketch> sparse(kPool);
    std::vector<DenseSketch> dense(kPool);
    for (int step = 0; step < 3000; ++step) {
      const size_t k = rng.NextBounded(kPool);
      const size_t j = rng.NextBounded(kPool);
      const uint64_t op = rng.NextBounded(6);
      std::string what;
      if (op <= 1) {
        // Record, allocating an empty sketch first. Values span both clamps.
        if (sparse[k].empty()) {
          sparse[k] = RttSketch(bins);
          dense[k] = DenseSketch(bins);
        }
        const int64_t v =
            static_cast<int64_t>(rng.NextBounded(uint64_t{1} << rng.NextBounded(28))) - 2;
        sparse[k].Record(v);
        dense[k].Record(v);
        what = "record " + std::to_string(v);
      } else if (op == 2 && !sparse[k].empty()) {
        // Raw counts of either sign, zero included: a bin can cancel without a merge.
        const int bin = static_cast<int>(rng.NextBounded(static_cast<uint64_t>(bins)));
        const int64_t count = static_cast<int64_t>(rng.NextBounded(7)) - 3;
        sparse[k].AddCount(bin, count);
        dense[k].AddCount(bin, count);
        what = "add " + std::to_string(count) + " at " + std::to_string(bin);
      } else if (op == 3 || op == 4) {
        const int64_t sign = op == 3 ? 1 : -1;
        const RttSketch other_sparse = sparse[j];
        const DenseSketch other_dense = dense[j];
        sparse[k].Merge(other_sparse, sign);
        dense[k].Merge(other_dense, sign);
        what = "merge " + std::to_string(sign) + " of " + std::to_string(j);
      } else {
        // Retraction to empty: a merge that cancels every count.
        const RttSketch self_sparse = sparse[k];
        const DenseSketch self_dense = dense[k];
        sparse[k].Merge(self_sparse, -1);
        dense[k].Merge(self_dense, -1);
        EXPECT_TRUE(sparse[k].empty()) << "self-retraction left a sketch at step " << step;
        what = "retract self";
      }
      for (size_t i = 0; i < kPool; ++i) {
        ExpectMatchesDense(sparse[i], dense[i],
                           "bins " + std::to_string(bins) + " step " + std::to_string(step) +
                               " (" + what + " into " + std::to_string(k) + ") sketch " +
                               std::to_string(i));
        if (HasFatalFailure()) return;
      }
    }
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
  frame.AddRtt(5, 0, 101, dense);

  RttSketch sparse(16);  // non-default bin count, gap-coded non-zero runs at both ends
  sparse.AddCount(0, 3);
  sparse.AddCount(15, 2);
  frame.AddRtt(700, 2, 99, sparse);
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

std::string HexOf(const std::vector<uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex(2 * bytes.size(), '0');
  for (size_t i = 0; i < bytes.size(); ++i) {
    hex[2 * i] = kDigits[bytes[i] >> 4];
    hex[2 * i + 1] = kDigits[bytes[i] & 0xF];
  }
  return hex;
}

TEST(AnomalyCodec, RttFrameGoldenBytes) {
  // The wire bytes themselves, not just a round trip: any change to the layout, the gap
  // coding of sketch bins, the keyed tag or the CRC shows here first. Captured from the
  // reference encoder under the default key.
  std::vector<uint8_t> wire;
  ReportCodec::Encode(RttFrame(), wire);
  EXPECT_EQ(HexOf(wire),
            "d75202"            // magic, version
            "c7188b29da63dae9"  // keyed tag
            "2a07030201"        // pinger 42, window 7, seq 3, 2 paths, 1 intra
            "0a00657804"        // slot 5, epoch 0, target 101, sent 120, lost 4
            "ee0a02634000"      // slot +695, epoch 2, target 99, sent 64, lost 0
            "2b1e02"            // intra: target 43, sent 30, lost 2
            "02"                // 2 extension records
            "0119050065500a"    // RTT, 25 bytes: slot 5, epoch 0, target 101, 80 bins, 10 set
            "1501010301020104010501050104010901090108"  // (gap, count) from bin 21
            "010abc050263100200030f02"  // RTT, 10 bytes: slot 700, 16 bins, bins 0 and 15
            "3f19cb85");        // CRC-32
}

TEST(AnomalyCodec, LossOnlyFramesCarryNoExtSection) {
  // A frame without RTT records must stay byte-identical to the pre-extension layout: an
  // "old" decoder (max_known_ext_type = 0) accepts it without any unknown-record tally.
  ReportFrame frame = RttFrame();
  frame.rtt.clear();
  frame.rtt_bins.clear();
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

TEST(AnomalyCodec, ScratchDecodeKeepsTheLastGoodFrameOnError) {
  // A collector decodes every frame into its scratch and swaps it in on success: its buffers
  // are reused, yet a damaged frame still leaves the collector's decoded frame untouched.
  std::vector<uint8_t> wire;
  ReportCodec::Encode(RttFrame(), wire);
  ReportFrame decoded;
  ReportFrame scratch;
  ASSERT_EQ(ReportCodec::Decode(wire, decoded, scratch), DecodeStatus::kOk);
  EXPECT_EQ(decoded, RttFrame());
  for (size_t len = 0; len < wire.size(); ++len) {
    EXPECT_NE(ReportCodec::Decode(std::span<const uint8_t>(wire.data(), len), decoded, scratch),
              DecodeStatus::kOk)
        << "prefix of length " << len << " decoded";
    EXPECT_EQ(decoded, RttFrame()) << "output mutated on error at length " << len;
  }
  ReportFrame other = RttFrame();
  other.seq = 4;
  other.rtt.pop_back();
  other.rtt_bins.resize(other.rtt.back().bins_begin + other.rtt.back().bins_size);
  ReportCodec::Encode(other, wire);
  ASSERT_EQ(ReportCodec::Decode(wire, decoded, scratch), DecodeStatus::kOk);
  EXPECT_EQ(decoded, other);
}

TEST(AnomalyCodec, RepeatedBinOnTheWireAddsItsCounts) {
  // The encoder writes each bin once, but a zero gap after the first pair is well-formed:
  // the decoder adds the repeated bin's counts, as recording them one by one would.
  ReportFrame frame;
  frame.pinger = 3;
  frame.window_id = 1;
  frame.rtt.push_back(WireRttDelta{2, 0, 9, RttSketch::kDefaultBins, 0, 3});
  frame.rtt_bins = {{20, 2}, {20, 3}, {31, 1}};
  std::vector<uint8_t> wire;
  ReportCodec::Encode(frame, wire);
  ReportFrame decoded;
  ASSERT_EQ(ReportCodec::Decode(wire, decoded), DecodeStatus::kOk);
  ASSERT_EQ(decoded.rtt.size(), 1u);
  const std::vector<RttSketch::BinCount> bins(decoded.RttBins(decoded.rtt[0]).begin(),
                                              decoded.RttBins(decoded.rtt[0]).end());
  EXPECT_EQ(bins, (std::vector<RttSketch::BinCount>{{20, 5}, {31, 1}}));
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

TEST(CollectorRtt, SkipsSketchesOfAnotherBinCount) {
  // Mixed-version rollout: two authenticated frames carry a sketch for the same slot, one at
  // the deployment's 80 bins and one from an agent set to 16. Both would merge into the
  // slot's running sketch and abort the next RunningTotals; the collector skips the odd
  // sketch and counts it, and both frames' loss records still fold.
  ObservationStore store;
  store.EnsureSlots(1);
  const Topology topo("rtt-bins");
  const Watchdog watchdog(topo);
  Collector collector(store);  // rtt_bins defaults to RttSketch::kDefaultBins
  collector.BeginWindow(1);

  RttSketch wide(RttSketch::kDefaultBins);
  wide.Record(100);
  wide.Record(250);
  RttSketch narrow(16);
  narrow.Record(100);
  NodeId pinger = 1;
  for (const RttSketch& sketch : {wide, narrow}) {
    ReportFrame frame;
    frame.pinger = pinger++;
    frame.window_id = 1;
    frame.paths.push_back(WirePathDelta{0, 0, /*target=*/9, 50, 1});
    frame.AddRtt(0, 0, /*target=*/9, sketch);
    std::vector<uint8_t> wire;
    ReportCodec::Encode(frame, wire);
    ASSERT_TRUE(collector.Offer(wire)) << "both frames' loss records fold";
  }
  const CollectorStats stats = collector.stats();
  EXPECT_EQ(stats.rtt_bins_mismatched, 1u);
  EXPECT_EQ(stats.decode_errors, 0u);
  EXPECT_EQ(stats.observations_folded, 3u);  // two loss records, one sketch

  const ObservationView totals = store.RunningTotals(1, watchdog);
  EXPECT_EQ(totals[0].sent, 100);
  EXPECT_EQ(totals[0].lost, 2);
  ASSERT_EQ(store.RttRunningTotals().size(), 1u);
  EXPECT_EQ(store.RttRunningTotals()[0], wide);
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
  return StoreReference::RttSnapshot(store, num_slots, watchdog);
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
  shard_a.RecordPathRttAtEpoch(0, /*epoch=*/0, /*target=*/2, late.num_bins(), late.bins());
  shard_a.RecordPathRttAtEpoch(1, store.SlotEpoch(1), /*target=*/2, late.num_bins(),
                               late.bins());
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
                           bool report_plane, size_t collectors = 1) {
  DetectorSystemOptions options;
  options.controller.packets_per_second = 50;
  options.segments_per_window = 4;
  options.diagnose_every_segments = 1;
  options.probe_threads = threads;
  options.report_plane = report_plane;
  options.report_collectors = collectors;
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
  // A 2-collector fabric at 4 threads: one ingest pump folds for both collectors while three
  // workers probe.
  const AnomalyRun fabric = RunGraySequence(routing, gray, /*threads=*/4, true,
                                            /*collectors=*/2);

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
      {&fabric, "report plane, 2 collectors, 4 threads"}};
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

// Every observable result of a gray run folded into one value, doubles by their bits:
// probe and byte counts, every boundary's suspects, server-link alarms and anomalies, the
// window-end results, and the final merged RTT sketches.
uint64_t FingerprintOf(const AnomalyRun& run) {
  uint64_t h = 0;
  const auto mix = [&h](uint64_t value) { h = HashCombine(h, value); };
  const auto mix_double = [&mix](double value) { mix(std::bit_cast<uint64_t>(value)); };
  const auto mix_diagnosis = [&](const LocalizeResult& localization,
                                 const std::vector<ServerLinkAlarm>& alarms,
                                 const std::vector<LinkAnomaly>& anomalies) {
    mix(localization.links.size());
    for (const SuspectLink& suspect : localization.links) {
      mix(static_cast<uint64_t>(suspect.link));
      mix_double(suspect.estimated_loss_rate);
      mix_double(suspect.hit_ratio);
      mix(static_cast<uint64_t>(suspect.explained_losses));
    }
    mix(alarms.size());
    for (const ServerLinkAlarm& alarm : alarms) {
      mix(static_cast<uint64_t>(alarm.pinger));
      mix(static_cast<uint64_t>(alarm.target));
      mix_double(alarm.loss_ratio);
    }
    mix(anomalies.size());
    for (const LinkAnomaly& anomaly : anomalies) {
      mix(static_cast<uint64_t>(anomaly.link));
      mix(anomaly.signal);
      mix_double(anomaly.score);
      mix(static_cast<uint64_t>(anomaly.sustained));
    }
  };
  for (const DetectorSystem::StreamingWindowResult& result : run.results) {
    mix(static_cast<uint64_t>(result.window.probes_sent));
    mix(static_cast<uint64_t>(result.window.bytes_sent));
    mix_diagnosis(result.window.localization, result.window.server_link_alarms,
                  result.window.anomalies);
    for (const DetectorSystem::SegmentDiagnosis& d : result.timeline) {
      mix(static_cast<uint64_t>(d.segment));
      mix_double(d.time_seconds);
      mix_diagnosis(d.localization, d.server_link_alarms, d.anomalies);
    }
  }
  for (const RttSketch& sketch : run.final_rtt) {
    mix(static_cast<uint64_t>(sketch.num_bins()));
    mix(static_cast<uint64_t>(sketch.total()));
    for (const RttSketch::BinCount& b : sketch.bins()) {
      mix(static_cast<uint64_t>(b.bin));
      mix(static_cast<uint64_t>(b.count));
    }
  }
  return h;
}

TEST(AnomalyEndToEnd, WindowResultsMatchPinnedFingerprint) {
  // The gray sequence's results pinned across commits, not only across execution shapes: a
  // change that claims to move no RNG draw, fold order or wire byte must hash to the literal
  // captured before it. The draws go through libstdc++'s std::binomial_distribution, so a
  // different standard library, or a deliberate change of the binomial sampler, changes the
  // trajectory; such a change re-captures the literal and declares it.
  constexpr uint64_t kPinned = 0xc546c372ef521ac8ULL;
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  Rng pick(99);
  const LinkId gray = SampleMonitoredLink(ft.topology(), pick);

  const AnomalyRun direct = RunGraySequence(routing, gray, /*threads=*/1, false);
  const AnomalyRun fabric = RunGraySequence(routing, gray, /*threads=*/4, true,
                                            /*collectors=*/2);
  EXPECT_EQ(FingerprintOf(direct), kPinned) << std::hex << FingerprintOf(direct);
  EXPECT_EQ(FingerprintOf(fabric), kPinned) << std::hex << FingerprintOf(fabric);
}

}  // namespace
}  // namespace detector
