// Collector-fabric tests (PR 6): the PartitionMap ownership function (exactly-one owner,
// deterministic rebuild after churn, hash fallback for unmapped pingers), wrong-partition
// rejection across a CollectorGroup, the group's stats rollup, and the system-level gate —
// multi-collector windows bit-identical to direct mode through churn.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/siphash.h"
#include "src/detector/system.h"
#include "src/report/codec.h"
#include "src/report/collector.h"
#include "src/report/collector_group.h"
#include "src/report/partition.h"
#include "src/routing/fattree_routing.h"
#include "src/sim/churn.h"
#include "src/topo/fattree.h"
#include "tests/window_equality.h"

namespace detector {
namespace {

std::vector<uint8_t> EncodedFrame(NodeId pinger, uint64_t window_id, uint64_t seq,
                                  PathId slot, int64_t sent, int64_t lost) {
  ReportFrame frame;
  frame.pinger = pinger;
  frame.window_id = window_id;
  frame.seq = seq;
  frame.paths.push_back(WirePathDelta{slot, 0, /*target=*/pinger + 1000, sent, lost});
  std::vector<uint8_t> wire;
  ReportCodec::Encode(frame, wire);
  return wire;
}

TEST(PartitionMap, ExactlyOneOwnerAndDeterministicBuild) {
  // Unsorted with duplicates: Build must sort + dedup before dealing.
  const std::vector<NodeId> pingers = {17, 3, 99, 3, 42, 8, 17, 55, 21, 64, 7, 30, 12};
  const PartitionMap map = PartitionMap::Build(pingers, 3);
  EXPECT_EQ(map.num_partitions(), 3u);
  EXPECT_EQ(map.num_pingers(), 11u);  // after dedup

  // Exactly one owner per pinger, and the deal is round-robin over the sorted set — the
  // property that lets any two processes derive the identical map with no coordination.
  std::vector<NodeId> sorted = {3, 7, 8, 12, 17, 21, 30, 42, 55, 64, 99};
  std::vector<size_t> owned(3, 0);
  for (size_t i = 0; i < sorted.size(); ++i) {
    const int p = map.PartitionOf(sorted[i]);
    ASSERT_GE(p, 0) << "pinger " << sorted[i] << " unmapped";
    ASSERT_LT(p, 3);
    EXPECT_EQ(static_cast<size_t>(p), i % 3) << "pinger " << sorted[i];
    EXPECT_EQ(map.RouteOf(sorted[i]), p);
    ++owned[static_cast<size_t>(p)];
  }
  for (size_t p = 0; p < 3; ++p) {
    EXPECT_GT(owned[p], 0u) << "partition " << p << " owns nothing";
  }

  // Same set in any order => the same map (operator== compares the full deal).
  std::vector<NodeId> reversed(sorted.rbegin(), sorted.rend());
  EXPECT_EQ(PartitionMap::Build(reversed, 3), map);

  // Unmapped pingers: PartitionOf says so, RouteOf falls back to the shared hash — still
  // in range, still identical across independently-built maps (agent vs collector side).
  EXPECT_EQ(map.PartitionOf(12345), -1);
  const int fallback = map.RouteOf(12345);
  ASSERT_GE(fallback, 0);
  ASSERT_LT(fallback, 3);
  EXPECT_EQ(PartitionMap::Build(reversed, 3).RouteOf(12345), fallback);

  // N clamps to >= 1 and a single partition owns everything.
  const PartitionMap solo = PartitionMap::Build(sorted, 0);
  EXPECT_EQ(solo.num_partitions(), 1u);
  for (const NodeId p : sorted) {
    EXPECT_EQ(solo.PartitionOf(p), 0);
  }
}

TEST(PartitionMap, RepartitionAfterChurnIsDeterministic) {
  std::vector<NodeId> fleet = {10, 20, 30, 40, 50, 60, 70, 80};
  const PartitionMap before = PartitionMap::Build(fleet, 4);

  // A server dies: rebuild without it. The new deal is a pure function of the surviving
  // set, so every process converges on it independently.
  std::vector<NodeId> survivors = {10, 20, 40, 50, 60, 70, 80};
  const PartitionMap after = PartitionMap::Build(survivors, 4);
  EXPECT_NE(after, before);
  EXPECT_EQ(after.PartitionOf(30), -1);
  std::vector<NodeId> shuffled = {80, 10, 60, 40, 20, 70, 50};
  EXPECT_EQ(PartitionMap::Build(shuffled, 4), after);
  for (size_t i = 0; i < survivors.size(); ++i) {
    EXPECT_EQ(after.PartitionOf(survivors[i]), static_cast<int>(i % 4));
  }
}

TEST(CollectorFabric, WrongPartitionFramesRejectedAndCounted) {
  ObservationStore store;
  store.EnsureSlots(4);
  const Topology empty_topo("none");
  Watchdog wd(empty_topo);

  // Pingers {1, 2} dealt over 2 partitions: 1 -> 0, 2 -> 1.
  CollectorGroupOptions options;
  options.num_collectors = 2;
  CollectorGroup group(store, PartitionMap::Build({1, 2}, 2), options);
  group.BeginWindow(1);
  ASSERT_EQ(group.RouteOf(1), 0);
  ASSERT_EQ(group.RouteOf(2), 1);

  // Pinger 2's frame lands on collector 0: rejected-and-counted, nothing folds — the
  // fabric cannot double-count even if an agent misroutes.
  const std::vector<uint8_t> wire = EncodedFrame(2, 1, 0, 0, 100, 10);
  EXPECT_FALSE(group.collector(0).Offer(wire));
  EXPECT_EQ(group.collector(0).stats().wrong_partition_dropped, 1u);
  EXPECT_EQ(group.collector(0).stats().frames_folded, 0u);
  {
    const ObservationView totals = store.RunningTotals(4, wd);
    EXPECT_EQ(totals[0].sent, 0);
    EXPECT_EQ(totals[0].lost, 0);
  }

  // The same frame on its rightful owner folds normally — the misroute burned nothing.
  EXPECT_TRUE(group.collector(1).Offer(wire));
  const CollectorStats rolled = group.stats();
  EXPECT_EQ(rolled.frames_folded, 1u);
  EXPECT_EQ(rolled.wrong_partition_dropped, 1u);
  const ObservationView totals = store.RunningTotals(4, wd);
  EXPECT_EQ(totals[0].sent, 100);
  EXPECT_EQ(totals[0].lost, 10);

  // An unmapped (mid-window-born) pinger routes by the hash fallback: folds there, is
  // rejected everywhere else.
  const NodeId born = 777;
  const int owner = group.RouteOf(born);
  const int other = 1 - owner;
  const std::vector<uint8_t> born_wire = EncodedFrame(born, 1, 0, 1, 30, 3);
  EXPECT_FALSE(group.collector(static_cast<size_t>(other)).Offer(born_wire));
  EXPECT_TRUE(group.collector(static_cast<size_t>(owner)).Offer(born_wire));
  EXPECT_EQ(group.stats().wrong_partition_dropped, 2u);
  EXPECT_EQ(group.stats().frames_folded, 2u);
}

// A record type this build does not know is skipped and counted (mixed-version rollout), and
// the group's rollup carries the count like every other counter.
TEST(CollectorFabric, GroupStatsCountUnknownRecords) {
  ObservationStore store;
  store.EnsureSlots(4);
  CollectorGroup group(store, PartitionMap::Build({1}, 1), CollectorGroupOptions{});
  group.BeginWindow(1);

  // A loss-only frame plus one extension record (n_ext = 1, type = 2, length = 0), resealed:
  // tag over the grown payload, CRC over everything before it.
  std::vector<uint8_t> wire = EncodedFrame(1, 1, 0, 0, 100, 10);
  wire.resize(wire.size() - 4);
  wire.insert(wire.end(), {1, 2, 0});
  const ReportKey key;
  const uint64_t tag = SipHash24(
      key.k0, key.k1, std::span<const uint8_t>(wire).subspan(ReportCodec::kHeaderPos));
  for (size_t b = 0; b < 8; ++b) {
    wire[ReportCodec::kTagOffset + b] = static_cast<uint8_t>(tag >> (8 * b));
  }
  const uint32_t crc = Crc32(wire);
  for (size_t b = 0; b < 4; ++b) {
    wire.push_back(static_cast<uint8_t>(crc >> (8 * b)));
  }

  EXPECT_TRUE(group.collector(0).Offer(wire));
  EXPECT_EQ(group.collector(0).stats().unknown_records, 1u);
  const CollectorStats rolled = group.stats();
  EXPECT_EQ(rolled.unknown_records, 1u);
  EXPECT_EQ(rolled.observations_folded, 1u) << "the known loss record must still fold";
}

DetectorSystemOptions FabricTestOptions(double pps) {
  DetectorSystemOptions options;
  options.pmc.alpha = 1;
  options.pmc.beta = 1;
  options.controller.packets_per_second = pps;
  options.segments_per_window = 6;
  options.diagnose_every_segments = 2;
  return options;
}

std::vector<ChurnEvent> FabricChurn(const FatTree& ft) {
  std::vector<ChurnEvent> churn;
  churn.push_back(ChurnEvent{8.0, TopologyDelta::LinkDown(ft.AggCoreLink(1, 0, 1))});
  churn.push_back(ChurnEvent{14.0, TopologyDelta::NodeDown(ft.Server(2, 0, 1))});
  churn.push_back(ChurnEvent{23.0, TopologyDelta::LinkUp(ft.AggCoreLink(1, 0, 1))});
  return churn;
}

// The fabric acceptance gate: N collectors stay bit-identical to direct mode — totals,
// verdicts, alarms, traffic — through mid-window churn (which forces a repartition at the next
// window open: the dead server's pinglist is gone) and across probe thread counts.
TEST(CollectorFabric, BarrieredWindowsBitIdenticalToDirect) {
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  FailureScenario scenario;
  LinkFailure f;
  f.link = ft.EdgeAggLink(0, 1, 0);
  f.type = FailureType::kRandomPartial;
  f.loss_rate = 0.08;
  scenario.failures.push_back(f);
  const std::vector<ChurnEvent> churn = FabricChurn(ft);

  for (const size_t collectors : {size_t{2}, size_t{4}}) {
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
      auto run = [&](bool report_plane) {
        DetectorSystemOptions options = FabricTestOptions(150);
        options.probe_threads = threads;
        options.report_plane = report_plane;
        options.report_collectors = collectors;
        DetectorSystem system(routing, options);
        Rng rng(99);
        std::vector<DetectorSystem::StreamingWindowResult> out;
        out.push_back(system.RunWindowStreaming(scenario, churn, rng));
        out.push_back(system.RunWindowStreaming(scenario, {}, rng));
        const CollectorGroup* group = system.collector_group();
        EXPECT_EQ(group != nullptr, report_plane);
        if (report_plane && group != nullptr) {
          EXPECT_EQ(group->num_collectors(), collectors);
          const CollectorStats stats = group->stats();
          EXPECT_GT(stats.frames_folded, 0u);
          EXPECT_EQ(stats.wrong_partition_dropped, 0u)
              << "emitters and collectors disagree on the partition map";
          EXPECT_EQ(stats.decode_errors, 0u);
          EXPECT_EQ(stats.duplicates_dropped, 0u);
          // Every partition carried traffic: the fabric actually spread the fleet.
          for (size_t c = 0; c < collectors; ++c) {
            EXPECT_GT(group->collector(c).stats().frames_folded, 0u)
                << "collector " << c << " folded nothing";
          }
        }
        return out;
      };
      const auto direct = run(false);
      const auto report = run(true);
      ASSERT_EQ(direct.size(), report.size());
      for (size_t w = 0; w < direct.size(); ++w) {
        const std::string when = "collectors=" + std::to_string(collectors) +
                                 " threads=" + std::to_string(threads) +
                                 " window=" + std::to_string(w);
        ExpectIdenticalWindows(direct[w].window, report[w].window, when);
        ASSERT_EQ(direct[w].timeline.size(), report[w].timeline.size()) << when;
        for (size_t i = 0; i < direct[w].timeline.size(); ++i) {
          ExpectIdenticalLocalizations(direct[w].timeline[i].localization,
                                       report[w].timeline[i].localization,
                                       when + " boundary " + std::to_string(i));
        }
      }
    }
  }
}

}  // namespace
}  // namespace detector
