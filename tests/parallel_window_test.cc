// Sharded probe-plane tests: parallel-vs-serial window equivalence (the per-shard RNG streams
// must make WindowResult bit-identical at any thread count, with and without mid-window
// churn), and ObservationStore semantics — streaming accumulation, replica merging, watchdog
// filtering, and epoch-based slot invalidation with mid-window slot reuse.
#include <gtest/gtest.h>

#include <vector>

#include "src/detector/observation_store.h"
#include "src/detector/system.h"
#include "src/routing/fattree_routing.h"
#include "src/sim/churn.h"
#include "src/topo/fattree.h"
#include "tests/store_reference.h"
#include "tests/window_equality.h"

namespace detector {
namespace {

void ExpectIdenticalAtThreads(const DetectorSystem::WindowResult& a,
                              const DetectorSystem::WindowResult& b, int threads) {
  ExpectIdenticalWindows(a, b, "threads=" + std::to_string(threads));
}

TEST(ParallelWindow, BitIdenticalAcrossThreadCounts) {
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  DetectorSystemOptions options;
  options.pmc.alpha = 2;
  options.pmc.beta = 1;
  options.controller.packets_per_second = 50;

  FailureScenario scenario;
  LinkFailure f;
  f.link = ft.AggCoreLink(1, 0, 1);
  f.type = FailureType::kRandomPartial;
  f.loss_rate = 0.05;
  scenario.failures.push_back(f);

  // Serial baseline, then the same seed at higher thread counts — including more threads than
  // the host has cores, and more than there are shards. Each thread count gets its own system.
  std::vector<DetectorSystem::WindowResult> results;
  for (const size_t threads : {1u, 2u, 8u}) {
    DetectorSystemOptions opts = options;
    opts.probe_threads = threads;
    DetectorSystem system(routing, opts);
    Rng rng(1234);
    results.push_back(system.RunWindowStreaming(scenario, {}, rng).window);
  }
  EXPECT_GT(results[0].probes_sent, 0);
  ExpectIdenticalAtThreads(results[0], results[1], 2);
  ExpectIdenticalAtThreads(results[0], results[2], 8);
}

TEST(ParallelWindow, BitIdenticalUnderMidWindowChurn) {
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  DetectorSystemOptions options;
  options.pmc.alpha = 1;
  options.pmc.beta = 1;
  options.controller.packets_per_second = 50;

  const LinkId flapper = ft.AggCoreLink(3, 1, 1);
  std::vector<ChurnEvent> churn;
  churn.push_back(ChurnEvent{8.0, TopologyDelta::LinkDown(flapper)});
  churn.push_back(ChurnEvent{21.0, TopologyDelta::LinkUp(flapper)});

  FailureScenario scenario;
  LinkFailure f;
  f.link = ft.EdgeAggLink(2, 0, 1);
  f.type = FailureType::kFullLoss;
  scenario.failures.push_back(f);

  // Each thread count gets a fresh system (churn mutates matrix/pinglist state) and the same
  // seed; every observable field of the result must match the serial baseline.
  std::vector<DetectorSystem::WindowResult> results;
  for (const size_t threads : {1u, 2u, 8u}) {
    DetectorSystemOptions opts = options;
    opts.probe_threads = threads;
    DetectorSystem system(routing, opts);
    Rng rng(77);
    results.push_back(system.RunWindowStreaming(scenario, churn, rng).window);
    EXPECT_EQ(results.back().churn_events_applied, 2u);
  }
  ExpectIdenticalAtThreads(results[0], results[1], 2);
  ExpectIdenticalAtThreads(results[0], results[2], 8);
  // The injected (non-churn) failure is still localized.
  ASSERT_GE(results[0].localization.links.size(), 1u);
  EXPECT_EQ(results[0].localization.links[0].link, f.link);
}

TEST(ParallelWindow, BudgetRemainderRedistributionIsDeterministic) {
  // When watchdog filtering skips entries, the skipped budget is redistributed and the
  // integer-split remainder goes to the first eligible entries in pinglist order — a rule
  // that depends only on the shard's own list, never on scheduling.
  const FatTree ft(6);  // 3 servers per rack: a pinger plus two distinct intra-rack targets
  Watchdog wd(ft.topology());
  const NodeId pinger_node = ft.Server(0, 0, 0);
  const NodeId healthy = ft.Server(0, 0, 1);
  const NodeId downed = ft.Server(0, 0, 2);

  Pinglist list;
  list.pinger = pinger_node;
  list.packets_per_second = 10.04;  // 301-packet budget over 30 s: odd, so the split leaves r=1
  auto intra_entry = [&](NodeId target) {
    PinglistEntry entry;
    entry.path_id = PinglistEntry::kIntraRackPath;
    entry.target_server = target;
    entry.route = {ft.topology().FindLink(pinger_node, ft.Tor(0, 0)),
                   ft.topology().FindLink(ft.Tor(0, 0), target)};
    return entry;
  };
  list.entries = {intra_entry(healthy), intra_entry(downed), intra_entry(healthy),
                  intra_entry(downed)};

  ProbeConfig probe;
  probe.base_loss_rate = 0.0;
  const ProbeEngine engine(ft.topology(), FailureScenario{}, probe);
  const Pinger pinger(list, /*confirm_packets=*/0);

  wd.MarkDown(downed);
  Rng rng(5);
  const auto filtered = pinger.RunWindow(engine, 30.0, rng, &wd);
  // Budget 301 over 2 eligible entries: 150 each plus the 1-packet remainder to the first.
  ASSERT_EQ(filtered.reports.size(), 2u);
  EXPECT_EQ(filtered.reports[0].sent, 151);
  EXPECT_EQ(filtered.reports[1].sent, 301 - 151);
  EXPECT_EQ(filtered.probes_sent, 301);  // the full budget, nothing truncated away

  // Without filtering, the classic round-robin split stands (no remainder spreading).
  Rng rng2(5);
  const auto unfiltered = pinger.RunWindow(engine, 30.0, rng2);
  ASSERT_EQ(unfiltered.reports.size(), 4u);
  for (const PathReport& report : unfiltered.reports) {
    EXPECT_EQ(report.sent, 75);  // 301 / 4, remainder left on the floor as before
  }
}

TEST(ParallelWindow, BitIdenticalAcrossThreadsWithFilteringActive) {
  // The redistribution (remainder included) must be independent of shard execution order:
  // a window with watchdog filtering active — a downed intra-rack target whose entries still
  // stand because the flag landed outside the churn-delta flow — is bit-identical at 1, 2,
  // and 8 threads. FatTree(6): 3 servers per rack, 2 pingers, so non-pinger targets exist.
  const FatTree ft(6);
  const FatTreeRouting routing(ft);
  DetectorSystemOptions options;
  options.pmc.alpha = 1;
  options.pmc.beta = 1;
  options.controller.packets_per_second = 47;  // odd budget => nonzero remainder when split

  std::vector<DetectorSystem::WindowResult> results;
  for (const size_t threads : {1u, 2u, 8u}) {
    DetectorSystemOptions opts = options;
    opts.probe_threads = threads;
    DetectorSystem system(routing, opts);

    // Flag a target directly (no topology delta): its intra-rack entries stay in the
    // standing pinglists and the probe-time skip + budget redistribution kick in.
    NodeId victim = kInvalidNode;
    for (const Pinglist& list : system.pinglists()) {
      for (const PinglistEntry& entry : list.entries) {
        if (entry.path_id == PinglistEntry::kIntraRackPath) {
          victim = entry.target_server;
        }
      }
    }
    ASSERT_NE(victim, kInvalidNode);
    system.watchdog().MarkDown(victim);

    FailureScenario scenario;
    LinkFailure f;
    f.link = ft.AggCoreLink(1, 0, 1);
    f.type = FailureType::kRandomPartial;
    f.loss_rate = 0.1;
    scenario.failures.push_back(f);

    Rng rng(2024);
    results.push_back(system.RunWindowStreaming(scenario, {}, rng).window);
    EXPECT_GT(results.back().probes_sent, 0);
  }
  ExpectIdenticalAtThreads(results[0], results[1], 2);
  ExpectIdenticalAtThreads(results[0], results[2], 8);
}

TEST(ObservationStore, StreamsMergesAndFilters) {
  const FatTree ft(4);
  Watchdog wd(ft.topology());
  ObservationStore store;
  store.EnsureSlots(4);

  ObservationStore::Shard& s1 = store.OpenShard(ft.Server(0, 0, 0));
  ObservationStore::Shard& s2 = store.OpenShard(ft.Server(0, 0, 1));
  s1.RecordPath(0, ft.Server(1, 0, 0), 100, 10);
  s2.RecordPath(0, ft.Server(1, 0, 0), 100, 8);  // replica of the same slot
  s2.RecordPath(2, ft.Server(1, 0, 1), 50, 0);
  s1.RecordIntraRack(ft.Server(0, 0, 1), 30, 15);

  const Observations view = StoreReference::Snapshot(store, 4, wd);
  ASSERT_EQ(view.size(), 4u);
  EXPECT_EQ(view[0].sent, 200);  // replicas summed
  EXPECT_EQ(view[0].lost, 18);
  EXPECT_EQ(view[1].sent, 0);
  EXPECT_EQ(view[2].sent, 50);
  ASSERT_EQ(StoreReference::IntraRackObservations(store, wd).size(), 1u);

  // Watchdog filtering: a flagged pinger's whole shard and a flagged target's records vanish.
  wd.MarkDown(ft.Server(0, 0, 0));
  const Observations filtered = StoreReference::Snapshot(store, 4, wd);
  EXPECT_EQ(filtered[0].sent, 100);  // only the healthy replica remains
  EXPECT_TRUE(StoreReference::IntraRackObservations(store, wd).empty());
  wd.MarkUp(ft.Server(0, 0, 0));
  wd.MarkDown(ft.Server(1, 0, 1));  // target of slot 2
  EXPECT_EQ(StoreReference::Snapshot(store, 4, wd)[2].sent, 0);
}

TEST(ObservationStore, InvalidationOrphansOnlyOldEpoch) {
  const FatTree ft(4);
  const Watchdog wd(ft.topology());
  ObservationStore store;
  store.EnsureSlots(3);
  ObservationStore::Shard& shard = store.OpenShard(ft.Server(0, 0, 0));
  shard.RecordPath(1, ft.Server(1, 0, 0), 100, 40);
  shard.RecordPath(2, ft.Server(2, 0, 0), 100, 1);

  // Mid-window: slot 1 is vacated by repair; its buffered counters must not survive...
  const std::vector<PathId> vacated = {1};
  store.InvalidateSlots(vacated);
  EXPECT_EQ(StoreReference::Snapshot(store, 3, wd)[1].sent, 0);
  EXPECT_EQ(StoreReference::Snapshot(store, 3, wd)[2].sent, 100);  // untouched slot unaffected

  // ...but the slot's new occupant accumulates normally under the fresh epoch, including
  // records streamed by a different pinger after redispatch.
  ObservationStore::Shard& other = store.OpenShard(ft.Server(0, 1, 0));
  other.RecordPath(1, ft.Server(3, 0, 0), 60, 6);
  EXPECT_EQ(StoreReference::Snapshot(store, 3, wd)[1].sent, 60);
  EXPECT_EQ(StoreReference::Snapshot(store, 3, wd)[1].lost, 6);

  // A second invalidation of the same slot orphans the new occupant too.
  store.InvalidateSlots(vacated);
  EXPECT_EQ(StoreReference::Snapshot(store, 3, wd)[1].sent, 0);

  store.Clear();
  EXPECT_EQ(store.num_shards(), 0u);
  EXPECT_EQ(StoreReference::Snapshot(store, 3, wd)[2].sent, 0);
}

TEST(ObservationStore, MidWindowInvalidationFlowsThroughDiagnose) {
  // End-to-end shape of a window with mid-window churn: segment 1 reports on a slot, churn
  // vacates it, segment 2 reports on the slot's new occupant; Diagnose must see only the new
  // counters.
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  PmcOptions pmc;
  pmc.alpha = 1;
  pmc.beta = 1;
  const ProbeMatrix matrix = BuildProbeMatrix(routing, PathEnumMode::kFull, pmc).matrix;
  const Watchdog wd(ft.topology());
  Diagnoser diagnoser;

  PingerWindowResult seg1;
  seg1.pinger = ft.Server(0, 0, 0);
  seg1.reports.push_back(PathReport{0, ft.Server(1, 0, 0), 200, 200, {}});
  diagnoser.Ingest(seg1);

  const std::vector<PathId> vacated = {0};
  diagnoser.DropReports(vacated);

  PingerWindowResult seg2;
  seg2.pinger = ft.Server(0, 0, 0);
  seg2.reports.push_back(PathReport{0, ft.Server(1, 0, 0), 100, 0, {}});
  diagnoser.Ingest(seg2);

  const Observations obs = StoreReference::Snapshot(diagnoser.store(), matrix.NumPaths(), wd);
  EXPECT_EQ(obs[0].sent, 100);
  EXPECT_EQ(obs[0].lost, 0);
  // The stale 100%-loss counters are gone: nothing to localize.
  const LocalizeResult result = diagnoser.Diagnose(matrix, wd);
  EXPECT_TRUE(result.links.empty());
}

}  // namespace
}  // namespace detector
