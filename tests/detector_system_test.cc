// System-layer tests: pinglist XML round trip, controller assignment invariants, pinger
// windows, diagnoser aggregation/outlier handling, and end-to-end detection+localization.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <type_traits>

#include "src/detector/controller.h"
#include "src/detector/diagnoser.h"
#include "src/detector/pinger.h"
#include "src/detector/system.h"
#include "src/localize/metrics.h"
#include "src/pmc/structured_fattree.h"
#include "src/routing/bcube_routing.h"
#include "src/routing/fattree_routing.h"
#include "tests/store_reference.h"

namespace detector {
namespace {

TEST(Pinglist, XmlRoundTrip) {
  Pinglist list;
  list.version = 7;
  list.pinger = 42;
  list.packets_per_second = 12.5;
  list.port_count = 16;
  PinglistEntry e1;
  e1.path_id = 3;
  e1.target_server = 99;
  e1.route = {1, 2, 3, 4};
  PinglistEntry e2;
  e2.path_id = PinglistEntry::kIntraRackPath;
  e2.target_server = 100;
  e2.route = {5, 6};
  list.entries = {e1, e2};

  const Pinglist parsed = Pinglist::FromXml(list.ToXml());
  EXPECT_EQ(parsed.version, 7);
  EXPECT_EQ(parsed.pinger, 42);
  EXPECT_DOUBLE_EQ(parsed.packets_per_second, 12.5);
  EXPECT_EQ(parsed.port_count, 16);
  ASSERT_EQ(parsed.entries.size(), 2u);
  EXPECT_EQ(parsed.entries[0].path_id, 3);
  EXPECT_EQ(parsed.entries[0].route, (std::vector<LinkId>{1, 2, 3, 4}));
  EXPECT_EQ(parsed.entries[1].path_id, PinglistEntry::kIntraRackPath);
  EXPECT_EQ(parsed.entries[1].target_server, 100);
}

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest() : ft_(4), routing_(ft_) {
    PmcOptions pmc;
    pmc.alpha = 1;
    pmc.beta = 1;
    matrix_ = BuildProbeMatrix(routing_, PathEnumMode::kFull, pmc).matrix;
  }

  FatTree ft_;
  FatTreeRouting routing_;
  ProbeMatrix matrix_;
};

TEST_F(ControllerTest, EveryPathReplicatedTwice) {
  Watchdog wd(ft_.topology());
  ControllerOptions options;
  options.intra_rack_probes = false;
  Controller controller(ft_.topology(), options);
  const auto pinglists = controller.BuildPinglists(matrix_, wd);

  std::map<PathId, int> replicas;
  std::map<PathId, std::set<NodeId>> pingers_of_path;
  for (const auto& list : pinglists) {
    for (const auto& entry : list.entries) {
      ++replicas[entry.path_id];
      pingers_of_path[entry.path_id].insert(list.pinger);
    }
  }
  EXPECT_EQ(replicas.size(), matrix_.NumPaths());
  for (const auto& [path, count] : replicas) {
    EXPECT_EQ(count, 2) << "path " << path;
    EXPECT_EQ(pingers_of_path[path].size(), 2u) << "replicas must be distinct pingers";
  }
}

TEST_F(ControllerTest, RoutesIncludeServerLinksAtBothEnds) {
  Watchdog wd(ft_.topology());
  ControllerOptions options;
  options.intra_rack_probes = false;
  Controller controller(ft_.topology(), options);
  const auto pinglists = controller.BuildPinglists(matrix_, wd);
  for (const auto& list : pinglists) {
    for (const auto& entry : list.entries) {
      ASSERT_GE(entry.route.size(), 2u);
      const Link& first = ft_.topology().link(entry.route.front());
      const Link& last = ft_.topology().link(entry.route.back());
      EXPECT_TRUE(first.a == list.pinger || first.b == list.pinger);
      EXPECT_TRUE(last.a == entry.target_server || last.b == entry.target_server);
      EXPECT_EQ(first.tier, 0);
      EXPECT_EQ(last.tier, 0);
    }
  }
}

TEST_F(ControllerTest, UnhealthyServersNotUsed) {
  Watchdog wd(ft_.topology());
  // Down every first server in each rack: the controller must use the others.
  for (int p = 0; p < 4; ++p) {
    for (int e = 0; e < 2; ++e) {
      wd.MarkDown(ft_.Server(p, e, 0));
    }
  }
  Controller controller(ft_.topology(), ControllerOptions{});
  const auto pinglists = controller.BuildPinglists(matrix_, wd);
  EXPECT_FALSE(pinglists.empty());
  for (const auto& list : pinglists) {
    EXPECT_TRUE(wd.IsHealthy(list.pinger));
    for (const auto& entry : list.entries) {
      EXPECT_TRUE(wd.IsHealthy(entry.target_server));
    }
  }
}

TEST_F(ControllerTest, IntraRackProbesCoverServerLinks) {
  Watchdog wd(ft_.topology());
  ControllerOptions options;
  options.intra_rack_probes = true;
  Controller controller(ft_.topology(), options);
  const auto pinglists = controller.BuildPinglists(matrix_, wd);
  std::set<LinkId> covered_server_links;
  for (const auto& list : pinglists) {
    for (const auto& entry : list.entries) {
      if (entry.path_id == PinglistEntry::kIntraRackPath) {
        for (LinkId l : entry.route) {
          EXPECT_EQ(ft_.topology().link(l).tier, 0);
          covered_server_links.insert(l);
        }
      }
    }
  }
  // Every server link of a non-pinger server is probed (pinger's own link is covered by its
  // outgoing matrix probes).
  EXPECT_GT(covered_server_links.size(), ft_.topology().CountNodes(NodeKind::kServer) / 2);
}

TEST(ControllerBcube, ServerEndpointsPingThemselves) {
  const Bcube bc(4, 1);
  const BcubeRouting routing(bc);
  PmcOptions pmc;
  pmc.alpha = 1;
  pmc.beta = 1;
  const ProbeMatrix matrix = BuildProbeMatrix(routing, PathEnumMode::kFull, pmc).matrix;
  Watchdog wd(bc.topology());
  ControllerOptions options;
  options.intra_rack_probes = false;
  Controller controller(bc.topology(), options);
  const auto pinglists = controller.BuildPinglists(matrix, wd);
  size_t entries = 0;
  for (const auto& list : pinglists) {
    for (const auto& entry : list.entries) {
      ++entries;
      EXPECT_EQ(matrix.paths().src(entry.path_id), list.pinger);
      EXPECT_EQ(matrix.paths().dst(entry.path_id), entry.target_server);
    }
  }
  EXPECT_EQ(entries, matrix.NumPaths());  // no replication possible: src is the pinger
}

TEST(Pinger, WindowBudgetAndConfirmation) {
  // A pinger views its pinglist, so a temporary one must not bind.
  static_assert(!std::is_constructible_v<Pinger, Pinglist&&, int>);
  static_assert(std::is_constructible_v<Pinger, const Pinglist&, int>);
  const FatTree ft(4);
  Pinglist list;
  list.pinger = ft.Server(0, 0, 0);
  list.packets_per_second = 10;
  PinglistEntry entry;
  entry.path_id = 0;
  entry.target_server = ft.Server(1, 0, 0);
  entry.route = {ft.ServerLink(0, 0, 0), ft.EdgeAggLink(0, 0, 0), ft.AggCoreLink(0, 0, 0),
                 ft.AggCoreLink(1, 0, 0), ft.EdgeAggLink(1, 0, 0), ft.ServerLink(1, 0, 0)};
  list.entries.push_back(entry);

  // Full loss on the path: every probe lost, and each window confirms with 2 extra packets.
  FailureScenario scenario;
  LinkFailure f;
  f.link = ft.AggCoreLink(0, 0, 0);
  f.type = FailureType::kFullLoss;
  scenario.failures.push_back(f);
  ProbeEngine engine(ft.topology(), scenario, ProbeConfig{});
  Rng rng(3);
  Pinger pinger(list, /*confirm_packets=*/2);
  const auto window = pinger.RunWindow(engine, 30.0, rng);
  ASSERT_EQ(window.reports.size(), 1u);
  EXPECT_EQ(window.reports[0].sent, 300 + 2);
  EXPECT_EQ(window.reports[0].lost, window.reports[0].sent);
  EXPECT_EQ(window.probes_sent, 302);
  EXPECT_GT(window.bytes_sent, 0);
}

TEST(Diagnoser, MergesReplicasAndDropsOutliers) {
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  PmcOptions pmc;
  pmc.alpha = 1;
  pmc.beta = 1;
  const ProbeMatrix matrix = BuildProbeMatrix(routing, PathEnumMode::kFull, pmc).matrix;
  Watchdog wd(ft.topology());
  Diagnoser diagnoser;

  PingerWindowResult w1;
  w1.pinger = ft.Server(0, 0, 0);
  w1.reports.push_back(PathReport{0, ft.Server(1, 0, 0), 100, 10, {}});
  PingerWindowResult w2;
  w2.pinger = ft.Server(0, 0, 1);
  w2.reports.push_back(PathReport{0, ft.Server(1, 0, 0), 100, 8, {}});
  PingerWindowResult bad;
  bad.pinger = ft.Server(2, 0, 0);
  bad.reports.push_back(PathReport{1, ft.Server(1, 0, 1), 100, 100, {}});
  wd.MarkDown(bad.pinger);

  diagnoser.Ingest(w1);
  diagnoser.Ingest(w2);
  diagnoser.Ingest(bad);
  const Observations obs = StoreReference::Snapshot(diagnoser.store(), matrix.NumPaths(), wd);
  EXPECT_EQ(obs[0].sent, 200);
  EXPECT_EQ(obs[0].lost, 18);
  EXPECT_EQ(obs[1].sent, 0);  // outlier discarded
}

TEST(Diagnoser, ServerLinkAlarmsFromIntraRackProbes) {
  const FatTree ft(4);
  Watchdog wd(ft.topology());
  Diagnoser diagnoser;
  PingerWindowResult w;
  w.pinger = ft.Server(0, 0, 0);
  w.reports.push_back(
      PathReport{PinglistEntry::kIntraRackPath, ft.Server(0, 0, 1), 100, 50, {}});
  w.reports.push_back(PathReport{PinglistEntry::kIntraRackPath, ft.Server(0, 1, 0), 100, 0, {}});
  diagnoser.Ingest(w);
  const auto alarms = diagnoser.ServerLinkAlarms(wd);
  ASSERT_EQ(alarms.size(), 1u);
  EXPECT_EQ(alarms[0].target, ft.Server(0, 0, 1));
  EXPECT_NEAR(alarms[0].loss_ratio, 0.5, 1e-9);
}

TEST(Diagnoser, ServerLinkAlarmsJudgeWindowTotals) {
  // One lost probe per segment is under the two-packet floor in any one segment, but the
  // window's two segments together lose 2 of 200: one alarm, at the window's ratio.
  const FatTree ft(4);
  Watchdog wd(ft.topology());
  Diagnoser diagnoser;
  for (int segment = 0; segment < 2; ++segment) {
    PingerWindowResult w;
    w.pinger = ft.Server(0, 0, 0);
    w.reports.push_back(
        PathReport{PinglistEntry::kIntraRackPath, ft.Server(0, 0, 1), 100, 1, RttSketch{}});
    diagnoser.Ingest(w);
  }
  const auto alarms = diagnoser.ServerLinkAlarms(wd);
  ASSERT_EQ(alarms.size(), 1u);
  EXPECT_EQ(alarms[0].pinger, ft.Server(0, 0, 0));
  EXPECT_EQ(alarms[0].target, ft.Server(0, 0, 1));
  EXPECT_DOUBLE_EQ(alarms[0].loss_ratio, 2.0 / 200.0);
}

TEST(DetectorSystem, ServerLinkAlarmsOncePerPairPerWindow) {
  // A lossy server link: a window probed in 10 slices must raise one alarm per
  // (pinger, target), naming the same pairs as the same window probed in one slice.
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  FailureScenario scenario;
  LinkFailure lossy;
  lossy.link = ft.ServerLink(1, 0, 1);
  lossy.type = FailureType::kRandomPartial;
  lossy.loss_rate = 0.2;
  scenario.failures.push_back(lossy);

  auto alarmed_pairs = [&](int segments) {
    DetectorSystemOptions options;
    options.pmc.alpha = 1;
    options.pmc.beta = 1;
    options.controller.packets_per_second = 10;
    options.segments_per_window = segments;
    options.diagnose_every_segments = 1;
    DetectorSystem system(routing, options);
    Rng rng(31);
    std::vector<std::set<std::pair<NodeId, NodeId>>> windows;
    for (int w = 0; w < 3; ++w) {
      const auto streamed = system.RunWindowStreaming(scenario, {}, rng);
      for (const auto& boundary : streamed.timeline) {
        std::set<std::pair<NodeId, NodeId>> pairs;
        for (const ServerLinkAlarm& alarm : boundary.server_link_alarms) {
          EXPECT_TRUE(pairs.emplace(alarm.pinger, alarm.target).second)
              << segments << " segments, window " << w << ": pair alarmed twice at "
              << boundary.time_seconds << " s";
        }
      }
      std::set<std::pair<NodeId, NodeId>> pairs;
      for (const ServerLinkAlarm& alarm : streamed.window.server_link_alarms) {
        pairs.emplace(alarm.pinger, alarm.target);
      }
      windows.push_back(std::move(pairs));
    }
    return windows;
  };

  const auto sliced = alarmed_pairs(10);
  const auto whole = alarmed_pairs(1);
  ASSERT_EQ(sliced.size(), whole.size());
  for (size_t w = 0; w < whole.size(); ++w) {
    EXPECT_FALSE(whole[w].empty()) << "window " << w;
    EXPECT_EQ(sliced[w], whole[w]) << "window " << w;
  }
}

TEST(DetectorSystem, EndToEndLocalizesInjectedFailure) {
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  DetectorSystemOptions options;
  options.pmc.alpha = 3;
  options.pmc.beta = 1;
  options.controller.packets_per_second = 50;  // plenty of samples in one window
  DetectorSystem system(routing, options);
  EXPECT_GT(system.probe_matrix().NumPaths(), 0u);
  EXPECT_FALSE(system.pinglists().empty());

  FailureModel model(ft.topology(), FailureModelOptions{});
  Rng rng(77);
  int correct = 0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    const FailureScenario scenario = model.SampleLinkFailures(1, rng);
    const auto window = system.RunWindowStreaming(scenario, {}, rng).window;
    const auto counts = EvaluateLocalization(window.localization.links, scenario.FailedLinks());
    correct += counts.true_positives == 1 ? 1 : 0;
    EXPECT_DOUBLE_EQ(window.detection_latency_seconds, 30.0);
    EXPECT_GT(window.probes_sent, 0);
  }
  // Random partial losses near 1e-4 can legitimately hide in one 30 s window (the paper's own
  // false-negative analysis in §6.4); most scenarios must still localize.
  EXPECT_GE(correct, trials * 2 / 3);
}

TEST(DetectorSystem, StructuredMatrixConstructor) {
  const FatTree ft(8);
  ProbeMatrix matrix = StructuredFatTreeProbeMatrix(ft, 1, 1);
  DetectorSystemOptions options;
  DetectorSystem system(ft.topology(), matrix, options);
  EXPECT_EQ(system.probe_matrix().NumPaths(), matrix.NumPaths());

  FailureScenario scenario;
  LinkFailure f;
  f.link = ft.AggCoreLink(2, 1, 1);
  f.type = FailureType::kFullLoss;
  scenario.failures.push_back(f);
  Rng rng(5);
  const auto window = system.RunWindowStreaming(scenario, {}, rng).window;
  ASSERT_GE(window.localization.links.size(), 1u);
  EXPECT_EQ(window.localization.links[0].link, f.link);
}

TEST(DetectorSystem, RecomputeCycleAfterServerFailure) {
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  DetectorSystemOptions options;
  options.pmc.alpha = 1;
  options.pmc.beta = 1;
  DetectorSystem system(routing, options);
  const NodeId down = system.pinglists().front().pinger;
  system.watchdog().MarkDown(down);
  system.RecomputeCycle();
  for (const auto& list : system.pinglists()) {
    EXPECT_NE(list.pinger, down);
  }
}

}  // namespace
}  // namespace detector
