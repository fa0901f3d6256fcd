// Incremental sliding-segment diagnosis tests (PR 4). Two oracles:
//
//  - Bit-exactness: DiagnoseRunning (incremental PLL over dirty components) and the window-end
//    Diagnose must equal the monolithic reference pass (tests/pll_reference.h) over the same
//    running totals at every cadence boundary — through record ingest, slot invalidation,
//    watchdog flips, mid-window churn (matrix rewiring + cache invalidation), recompute
//    cycles, and window clears.
//  - The sliding-segment view must localize a loss episode that appears and clears inside one
//    window — one the whole-window totals dilute below the loss threshold — and must report
//    it gone once it leaves the trailing window.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/detector/analyzer.h"
#include "src/detector/diagnoser.h"
#include "src/detector/system.h"
#include "src/pmc/decomposition.h"
#include "src/pmc/incremental.h"
#include "src/routing/fattree_routing.h"
#include "src/sim/churn.h"
#include "src/topo/delta.h"
#include "src/topo/fattree.h"
#include "tests/pll_reference.h"
#include "tests/window_equality.h"

namespace detector {
namespace {

TEST(Decomposition, ProbeMatrixComponentsAreConsistent) {
  // PLL's view of Observation 1: a probe matrix's paths decomposed over its links, for a
  // PMC-built matrix and for a repaired one whose dead link no path crosses and whose vacated
  // slots are empty paths.
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  PmcOptions pmc;
  pmc.alpha = 1;
  pmc.beta = 1;
  const ProbeMatrix built = BuildProbeMatrix(routing, PathEnumMode::kFull, pmc).matrix;
  IncrementalPmc inc(ft.topology(), routing.Enumerate(PathEnumMode::kFull), pmc);
  LinkStateOverlay overlay(ft.topology());
  inc.ApplyDelta(overlay.Apply(TopologyDelta::LinkDown(ft.AggCoreLink(0, 0, 0))));
  const ProbeMatrix repaired = inc.BuildMatrix();

  size_t empty_slots = 0;
  for (const ProbeMatrix* matrix : {&built, &repaired}) {
    const Decomposition part = DecomposePathLinkGraph(matrix->paths(), matrix->links());
    ASSERT_GT(part.components.size(), 0u);
    ASSERT_EQ(part.component_of_path.size(), matrix->NumPaths());
    ASSERT_EQ(part.component_of_link.size(), static_cast<size_t>(matrix->NumLinks()));

    // Every path lands in the component of every link it traverses; an empty slot in none.
    size_t nonempty_paths = 0;
    for (size_t p = 0; p < matrix->NumPaths(); ++p) {
      const int32_t c = part.component_of_path[p];
      if (matrix->paths().Links(static_cast<PathId>(p)).empty()) {
        EXPECT_EQ(c, -1) << "empty slot " << p;
        ++empty_slots;
        continue;
      }
      ++nonempty_paths;
      ASSERT_GE(c, 0) << "path " << p;
      for (const LinkId link : matrix->paths().Links(static_cast<PathId>(p))) {
        const int32_t dense = matrix->links().Dense(link);
        if (dense >= 0) {
          EXPECT_EQ(part.component_of_link[static_cast<size_t>(dense)], c)
              << "path " << p << " link " << link;
        }
      }
    }
    // The member lists partition the domains exactly: the components' paths are the
    // non-empty ones, and component links plus uncoverable links are the link domain.
    size_t paths_total = 0;
    size_t links_total = part.uncoverable_links.size();
    for (size_t c = 0; c < part.components.size(); ++c) {
      for (const PathId p : part.components[c].path_ids) {
        EXPECT_EQ(part.component_of_path[static_cast<size_t>(p)], static_cast<int32_t>(c));
      }
      for (const int32_t l : part.components[c].dense_links) {
        EXPECT_EQ(part.component_of_link[static_cast<size_t>(l)], static_cast<int32_t>(c));
      }
      paths_total += part.components[c].path_ids.size();
      links_total += part.components[c].dense_links.size();
    }
    for (const int32_t l : part.uncoverable_links) {
      EXPECT_EQ(part.component_of_link[static_cast<size_t>(l)], -1) << "link " << l;
    }
    EXPECT_EQ(paths_total, nonempty_paths);
    EXPECT_EQ(links_total, static_cast<size_t>(matrix->NumLinks()));
  }
  EXPECT_GT(empty_slots, 0u) << "the repaired matrix has no vacated slot";
}

// Drives a Diagnoser through ingest, invalidation, and watchdog flips, asserting at every
// step that the incremental diagnosis equals the reference pass on the same totals.
TEST(IncrementalDiagnosis, MatchesFullAtEveryBoundary) {
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  PmcOptions pmc;
  pmc.alpha = 1;
  pmc.beta = 1;
  const ProbeMatrix matrix = BuildProbeMatrix(routing, PathEnumMode::kFull, pmc).matrix;
  Watchdog wd(ft.topology());
  Diagnoser diagnoser;
  const ReferencePll reference;

  const NodeId p1 = ft.Server(0, 0, 0);
  const NodeId p2 = ft.Server(1, 0, 0);
  const NodeId t1 = ft.Server(2, 0, 0);

  // The reference over the store's current totals. Reading them folds pending records but
  // leaves the dirty tracker for the incremental diagnosis to take.
  auto full = [&] {
    return reference.LocalizeView(matrix, diagnoser.store().RunningTotals(matrix.NumPaths(), wd));
  };
  auto expect_match = [&](const char* when) {
    const LocalizeResult expected = full();
    const LocalizeResult incremental = diagnoser.DiagnoseRunning(matrix, wd);
    EXPECT_EQ(incremental.links, expected.links) << when;
  };

  auto ingest = [&](NodeId pinger, PathId slot, int64_t sent, int64_t lost) {
    PingerWindowResult report;
    report.pinger = pinger;
    report.reports.push_back(PathReport{slot, t1, sent, lost, {}});
    diagnoser.Ingest(report);
  };

  expect_match("empty store");
  ingest(p1, 0, 200, 0);
  ingest(p1, 3, 200, 150);
  ingest(p2, 3, 200, 140);  // replica
  expect_match("first losses");

  // A clean boundary (no new observations): everything served from cached verdicts.
  expect_match("no-op boundary");

  // More loss on other slots, then a retroactive pinger drop and recovery.
  ingest(p2, 7, 300, 60);
  expect_match("second component lossy");
  wd.MarkDown(p2);
  expect_match("pinger flagged");
  ingest(p2, 7, 100, 100);  // streamed while down: filtered out of the totals
  expect_match("ingest while flagged");
  wd.MarkUp(p2);
  expect_match("pinger recovered");

  // Mid-window slot invalidation (no matrix change: the partition stays valid).
  const std::vector<PathId> vacated = {3};
  diagnoser.DropReports(vacated);
  expect_match("slot vacated");
  ingest(p1, 3, 50, 50);
  expect_match("slot reused");

  // Window end closes through the cumulative state (one unread dirty slot pending) and
  // consumes everything; the next window starts from all-dirty.
  ingest(p2, 9, 200, 120);
  const LocalizeResult expected_end = full();
  EXPECT_EQ(diagnoser.Diagnose(matrix, wd).links, expected_end.links) << "window end";
  expect_match("after window clear");
  ingest(p1, 5, 120, 80);
  expect_match("next window");
}

// Keeps the last sealed window: its boundary deltas, summed through boundary d, are the
// totals its d-th diagnosis localized over.
class LastSealedWindow : public WindowSink {
 public:
  void OnWindowSealed(const SealedWindow& window) override { last_ = window; }
  const SealedWindow& last() const { return last_; }

 private:
  SealedWindow last_;
};

// End-to-end: streaming windows with mid-window churn (matrix rewiring included) — every
// timeline entry, the window end included, must equal the reference pass over that
// boundary's totals (prefix sums of the sealed deltas) and that boundary's matrix (from a
// shadow system that applies the same churn events and never probes); tier-1
// streaming-vs-batch behavior preserved across a RecomputeCycle.
TEST(IncrementalDiagnosis, SystemTimelinesMatchFullUnderChurn) {
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  DetectorSystemOptions options;
  options.pmc.alpha = 1;
  options.pmc.beta = 1;
  options.controller.packets_per_second = 60;
  options.segments_per_window = 6;
  options.diagnose_every_segments = 1;

  const LinkId flapper = ft.AggCoreLink(3, 1, 1);
  const NodeId dying_server = ft.Server(2, 1, 0);
  std::vector<ChurnEvent> churn;
  churn.push_back(ChurnEvent{7.0, TopologyDelta::LinkDown(flapper)});
  churn.push_back(ChurnEvent{13.0, TopologyDelta::NodeDown(dying_server)});
  churn.push_back(ChurnEvent{22.0, TopologyDelta::LinkUp(flapper)});

  FailureScenario scenario;
  LinkFailure f;
  f.link = ft.EdgeAggLink(1, 0, 1);
  f.type = FailureType::kFullLoss;
  scenario.failures.push_back(f);

  LastSealedWindow sealed;
  DetectorSystem incremental(routing, options);
  DetectorSystem shadow(routing, options);
  incremental.set_history_sink(&sealed);
  const ReferencePll reference(options.pll);
  Rng rng(4242);

  for (int window = 0; window < 3; ++window) {
    const auto churn_slice = window == 0 ? churn : std::vector<ChurnEvent>{};
    const auto result = incremental.RunWindowStreaming(scenario, churn_slice, rng);
    const SealedWindow& log = sealed.last();
    ASSERT_EQ(log.boundaries.size(), result.timeline.size());

    size_t next_event = 0;
    Observations totals;
    for (size_t i = 0; i < result.timeline.size(); ++i) {
      const auto& entry = result.timeline[i];
      EXPECT_EQ(log.boundaries[i].segment, entry.segment);
      // The live window applies every event stamped before a boundary ahead of its diagnosis.
      while (next_event < churn_slice.size() &&
             churn_slice[next_event].time_seconds < entry.time_seconds) {
        shadow.ApplyTopologyDelta(churn_slice[next_event].delta);
        ++next_event;
      }
      const ProbeMatrix& matrix = shadow.probe_matrix();
      totals.resize(std::max(totals.size(), matrix.NumPaths()));
      for (const SealedDelta& delta : log.boundaries[i].deltas) {
        totals[static_cast<size_t>(delta.slot)].sent += delta.sent;
        totals[static_cast<size_t>(delta.slot)].lost += delta.lost;
      }
      ExpectIdenticalLocalizations(
          entry.localization,
          reference.LocalizeView(matrix, ObservationView(totals.data(), matrix.NumPaths())),
          "window " + std::to_string(window) + " boundary " + std::to_string(i));
    }
    if (window == 0) {
      EXPECT_EQ(next_event, churn.size());
      // The injected failure is seen mid-window.
      EXPECT_GT(result.FirstDetectionSeconds(f.link), 0.0);
    }
    if (window == 1) {
      // A full re-plan between windows: the cache must survive the matrix replacement.
      incremental.RecomputeCycle();
      shadow.RecomputeCycle();
    }
  }
}

// Pins both partition resets in Diagnoser::InvalidateLocalizeCache. Repair reuses vacated
// slots for paths through other links without changing the matrix dimensions, so a PLL
// partition kept across a delta scores a rewired slot under its old path's component; the
// fat-tree(8) PMC matrix has enough components for that to change verdicts. After every
// ChurnGenerator delta, each rewired slot's new path carries full loss on a link its old path
// did not cross, and at every following boundary the cumulative and trailing diagnoses must
// equal the reference pass over RunningTotals and TrailingTotals.
TEST(IncrementalDiagnosis, PartitionResetsHoldUnderChurnAtK8) {
  const FatTree ft(8);
  const FatTreeRouting routing(ft);
  DetectorSystemOptions options;
  options.pmc.alpha = 1;
  options.pmc.beta = 1;
  DetectorSystem shadow(routing, options);  // repairs the matrix; never probes
  const Watchdog& wd = shadow.watchdog();
  Diagnoser diagnoser(options.pll);
  diagnoser.set_sliding_segments(2);
  const ReferencePll reference(options.pll);
  const NodeId pinger = ft.Server(0, 0, 0);
  const NodeId target = ft.Server(1, 0, 0);

  ChurnOptions churn_options;
  churn_options.link_events_per_minute = 6.0;
  Rng churn_rng(808);
  const std::vector<ChurnEvent> trace =
      ChurnGenerator(ft.topology(), churn_options).Sample(600.0, churn_rng);
  ASSERT_GT(trace.size(), 20u);

  std::vector<uint8_t> failed(static_cast<size_t>(ft.topology().NumLinks()), 0);
  auto boundary = [&](const std::string& when) {
    const ProbeMatrix& matrix = shadow.probe_matrix();
    const size_t num_slots = matrix.NumPaths();
    diagnoser.store().EnsureSlots(num_slots);
    ObservationStore::Shard& shard = diagnoser.store().OpenShard(pinger);
    for (size_t slot = 0; slot < num_slots; ++slot) {
      const auto links = matrix.paths().Links(static_cast<PathId>(slot));
      if (links.empty()) {
        continue;  // vacated, not reused
      }
      const bool lossy = std::any_of(links.begin(), links.end(), [&](LinkId link) {
        return failed[static_cast<size_t>(link)] != 0;
      });
      shard.RecordPath(static_cast<PathId>(slot), target, 100, lossy ? 100 : 0);
    }
    diagnoser.AdvanceSegment(matrix, wd);
    const LocalizeResult running =
        reference.LocalizeView(matrix, diagnoser.store().RunningTotals(num_slots, wd));
    ExpectIdenticalLocalizations(diagnoser.DiagnoseRunning(matrix, wd), running,
                                 "running, " + when);
    const LocalizeResult trailing =
        reference.LocalizeView(matrix, diagnoser.TrailingTotals(num_slots));
    ExpectIdenticalLocalizations(diagnoser.DiagnoseTrailing(matrix, wd), trailing,
                                 "trailing, " + when);
  };

  size_t rewired_total = 0;
  for (size_t e = 0; e < trace.size(); ++e) {
    // Every link the slot crossed before the delta, to find the slots repair rewired.
    const ProbeMatrix before = shadow.probe_matrix();
    const DetectorSystem::ChurnApplyResult applied = shadow.ApplyTopologyDelta(trace[e].delta);
    diagnoser.DropReports(applied.slots_vacated);
    if (applied.paths_removed + applied.paths_added > 0) {
      diagnoser.InvalidateLocalizeCache();  // what Analyzer::InvalidateSlots does
    }
    const ProbeMatrix& after = shadow.probe_matrix();
    std::fill(failed.begin(), failed.end(), 0);
    for (size_t slot = 0; slot < std::min(before.NumPaths(), after.NumPaths()); ++slot) {
      const auto old_links = before.paths().Links(static_cast<PathId>(slot));
      for (const LinkId link : after.paths().Links(static_cast<PathId>(slot))) {
        if (std::find(old_links.begin(), old_links.end(), link) == old_links.end()) {
          failed[static_cast<size_t>(link)] = 1;
          ++rewired_total;
          break;
        }
      }
    }
    for (int segment = 0; segment < 3; ++segment) {
      boundary("delta " + std::to_string(e) + " segment " + std::to_string(segment));
    }
    if (e % 4 == 3) {
      // A window end: the consuming diagnosis closes through the cumulative state.
      const LocalizeResult expected = reference.LocalizeView(
          after, diagnoser.store().RunningTotals(after.NumPaths(), wd));
      ExpectIdenticalLocalizations(diagnoser.Diagnose(after, wd), expected,
                                   "window end after delta " + std::to_string(e));
    }
  }
  EXPECT_GT(rewired_total, 0u) << "no delta rewired a slot";
}

// The headline scenario: a full-loss episode spanning two of fifteen segments. Whole-window
// totals dilute it below the loss threshold (4 s of loss over 30 s ~ 13% < the 20% threshold
// used here), so batch diagnosis and the window-end diagnosis miss it; the trailing
// two-segment view sees ~100% loss while the episode is in window and nothing once it leaves.
TEST(SlidingSegmentDiagnosis, LocalizesAppearAndClearEpisode) {
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  DetectorSystemOptions options;
  options.pmc.alpha = 1;
  options.pmc.beta = 1;
  options.controller.packets_per_second = 120;
  options.confirm_packets = 0;          // confirmation retries would re-shape the loss ratios
  options.probe.base_loss_rate = 0.0;   // keep the arithmetic of the dilution argument exact
  options.pll.preprocess.path_loss_ratio_threshold = 0.2;
  options.segments_per_window = 15;     // 2 s slices
  options.diagnose_every_segments = 1;
  options.streaming_view = StreamingViewMode::kSliding;
  options.sliding_window_segments = 2;  // trailing 4 s

  const LinkId episode_link = ft.EdgeAggLink(1, 0, 1);
  FailureScenario scenario;
  FailureEpisode episode;
  episode.failure.link = episode_link;
  episode.failure.type = FailureType::kFullLoss;
  episode.start_seconds = 4.0;  // segments [3, 4]: loss from t=4 s, cleared at t=8 s
  episode.end_seconds = 8.0;
  scenario.episodes.push_back(episode);

  DetectorSystem system(routing, options);
  Rng rng(77);
  const auto streamed = system.RunWindowStreaming(scenario, {}, rng);

  auto contains = [&](const LocalizeResult& result) {
    for (const SuspectLink& s : result.links) {
      if (s.link == episode_link) {
        return true;
      }
    }
    return false;
  };

  // Whole-window diagnosis (the window result and the final timeline entry) misses it.
  EXPECT_FALSE(contains(streamed.window.localization))
      << "whole-window totals should dilute the episode below the loss threshold";

  // The sliding view localizes it while it is inside the trailing window...
  const double first = streamed.FirstDetectionSeconds(episode_link);
  EXPECT_GT(first, episode.start_seconds);
  EXPECT_LE(first, 8.0 + 1e-9);

  // ...and reports it gone at every boundary after it leaves the trailing window
  // (episode end 8 s + trailing width 4 s).
  bool seen_during = false;
  for (const auto& d : streamed.timeline) {
    const bool hit = contains(d.localization);
    if (d.time_seconds > episode.start_seconds && d.time_seconds <= 12.0) {
      seen_during |= hit;
    } else {
      EXPECT_FALSE(hit) << "boundary at " << d.time_seconds
                        << " s still names the cleared episode";
    }
  }
  EXPECT_TRUE(seen_during);

  // The cumulative view on the same probing tells the wrong story on both ends: its
  // accumulated ratio decays only slowly after the episode clears, so it keeps alarming for
  // many boundaries past t = 12 s where the sliding view already reports clear — and by the
  // window end the dilution flips it to a miss (asserted above on window.localization, which
  // is the cumulative final). The trailing view is what tracks the episode's actual extent.
  DetectorSystemOptions cumulative_options = options;
  cumulative_options.streaming_view = StreamingViewMode::kCumulative;
  DetectorSystem cumulative(routing, cumulative_options);
  Rng cumulative_rng(77);
  const auto cumulative_streamed = cumulative.RunWindowStreaming(scenario, {}, cumulative_rng);
  ExpectIdenticalWindows(streamed.window, cumulative_streamed.window,
                         "probing is view-independent");
  double cumulative_last_named = -1.0;
  for (const auto& d : cumulative_streamed.timeline) {
    if (contains(d.localization)) {
      cumulative_last_named = d.time_seconds;
    }
  }
  EXPECT_GT(cumulative_last_named, 12.0)
      << "cumulative diagnosis should still name the episode after the sliding view cleared";
}

// The boundary view belongs to the Analyzer: one built straight from options, as a deployed
// collector builds it, localizes every mid-window boundary over the view the options name. Fed
// the same records, a sliding-view Analyzer names an episode's link only while the episode is
// inside its trailing width, and a default-view Analyzer keeps naming it from the whole
// window; both close the window on the cumulative totals.
TEST(SlidingSegmentDiagnosis, AnalyzerLocalizesOverItsOptionsView) {
  // The toy of SlotReuseDoesNotBlindTrailingView below: slot i covers exactly link i.
  Topology topo("toy");
  std::vector<NodeId> nodes;
  for (int i = 0; i <= 3; ++i) {
    nodes.push_back(topo.AddNode(NodeKind::kTor, 0, i, "n" + std::to_string(i)));
  }
  std::vector<LinkId> links;
  for (int i = 0; i < 3; ++i) {
    links.push_back(topo.AddLink(nodes[static_cast<size_t>(i)],
                                 nodes[static_cast<size_t>(i) + 1], 1));
  }
  PathStore paths;
  for (int i = 0; i < 3; ++i) {
    const std::vector<LinkId> path_links = {links[static_cast<size_t>(i)]};
    paths.Add(0, 1, path_links);
  }
  const ProbeMatrix matrix(std::move(paths), LinkIndex::ForMonitored(topo));
  const Watchdog wd(topo);

  DetectorSystemOptions sliding_options;
  sliding_options.streaming_view = StreamingViewMode::kSliding;
  sliding_options.sliding_window_segments = 2;
  Analyzer sliding(sliding_options, matrix, wd);
  Analyzer cumulative(DetectorSystemOptions{}, matrix, wd);

  auto names_episode = [&](const LocalizeResult& result) {
    for (const SuspectLink& s : result.links) {
      if (s.link == links[1]) {
        return true;
      }
    }
    return false;
  };
  // Link 1 loses everything in segments 3 and 4 and nothing before or after.
  constexpr int kSegments = 8;
  auto record_segment = [&](Analyzer& analyzer, int segment) {
    ObservationStore::Shard& shard = analyzer.diagnoser().store().OpenShard(nodes[0]);
    const bool lossy = segment == 3 || segment == 4;
    shard.RecordPath(0, nodes[1], 100, 0);
    shard.RecordPath(1, nodes[2], 100, lossy ? 100 : 0);
    shard.RecordPath(2, nodes[3], 100, 0);
    analyzer.diagnoser().AdvanceSegment(matrix, wd);
  };

  sliding.OpenWindow();
  cumulative.OpenWindow();
  for (int segment = 1; segment < kSegments; ++segment) {
    const double t = 2.0 * segment;
    record_segment(sliding, segment);
    record_segment(cumulative, segment);
    // The trailing two segments hold a lossy one at boundaries 3, 4 and 5.
    EXPECT_EQ(names_episode(sliding.DiagnoseBoundary(segment, t).localization),
              segment >= 3 && segment <= 5)
        << "sliding view at boundary " << segment;
    EXPECT_EQ(names_episode(cumulative.DiagnoseBoundary(segment, t).localization), segment >= 3)
        << "cumulative view at boundary " << segment;
  }
  const WindowDiagnosis sliding_end = sliding.CloseWindow(kSegments, 2.0 * kSegments);
  const WindowDiagnosis cumulative_end = cumulative.CloseWindow(kSegments, 2.0 * kSegments);
  EXPECT_TRUE(names_episode(sliding_end.localization));
  ExpectIdenticalLocalizations(sliding_end.localization, cumulative_end.localization,
                               "the window end is cumulative in either view");
}

// ROADMAP open item, closed in PR 5: the trailing ring keys its per-segment deltas by
// (slot, epoch), so a mid-window repair that vacates and reuses a slot purges the dead
// epoch's deltas instead of leaving a retraction that blinds DiagnoseTrailing on the slot
// for up to W segments. This is the surgical pre/post-fix discriminator: before the fix the
// reused slot's trailing total was 0 sent / 100 lost (unusable), and the episode on it was
// invisible at the first post-repair boundary.
TEST(SlidingSegmentDiagnosis, SlotReuseDoesNotBlindTrailingView) {
  // Three chained links, one single-link probe path per link: slot i covers exactly link i.
  Topology topo("toy");
  std::vector<NodeId> nodes;
  for (int i = 0; i <= 3; ++i) {
    nodes.push_back(topo.AddNode(NodeKind::kTor, 0, i, "n" + std::to_string(i)));
  }
  std::vector<LinkId> links;
  for (int i = 0; i < 3; ++i) {
    links.push_back(topo.AddLink(nodes[static_cast<size_t>(i)],
                                 nodes[static_cast<size_t>(i) + 1], 1));
  }
  PathStore paths;
  for (int i = 0; i < 3; ++i) {
    const std::vector<LinkId> path_links = {links[static_cast<size_t>(i)]};
    paths.Add(0, 1, path_links);
  }
  const ProbeMatrix matrix(std::move(paths), LinkIndex::ForMonitored(topo));
  Watchdog wd(topo);

  Diagnoser diagnoser;
  diagnoser.set_sliding_segments(2);
  ObservationStore& store = diagnoser.store();
  store.EnsureSlots(3);
  ObservationStore::Shard& shard = store.OpenShard(nodes[0]);

  auto record_segment = [&](int64_t slot1_sent, int64_t slot1_lost) {
    shard.RecordPath(0, nodes[1], 100, 0);
    shard.RecordPath(1, nodes[2], slot1_sent, slot1_lost);
    shard.RecordPath(2, nodes[3], 100, 0);
    diagnoser.AdvanceSegment(matrix, wd);
  };

  // Two healthy segments fill the trailing ring and the boundary totals.
  record_segment(100, 0);
  record_segment(100, 0);
  EXPECT_TRUE(diagnoser.DiagnoseTrailing(matrix, wd).links.empty());

  // Mid-window repair vacates slot 1 (epoch bump retracts its 200 folded packets) and reuses
  // it; the new occupant's first segment observes full loss on link 1.
  const std::vector<PathId> vacated = {1};
  diagnoser.DropReports(vacated);
  record_segment(100, 100);

  // Exactly the episode link, at full loss — the untouched slots' clean trailing traffic
  // raises nothing, and the reused slot is diagnosable at the first post-repair boundary.
  const LocalizeResult result = diagnoser.DiagnoseTrailing(matrix, wd);
  ASSERT_EQ(result.links.size(), 1u) << "reused slot still blind in the trailing view";
  EXPECT_EQ(result.links[0].link, links[1]);
  EXPECT_GT(result.links[0].estimated_loss_rate, 0.9);
}

// The PR 5 wart, fixed in PR 6: a watchdog flip retracts a node's records from the running
// totals *without* an epoch bump, so the ring used to ingest the retraction as a negative
// segment delta. Once the positive pre-flip delta aged out of the trailing window the
// retraction remained alone and the trailing sums went negative — nonsense observations fed
// to PLL. The fix restarts flipped slots (purges their ring history, re-cuts the boundary),
// so the trailing view drops the flipped traffic instantly and resumes from real post-flip
// traffic only. Pre-fix this test fails at the "+2 segments after flip" step with
// sent = -100.
TEST(SlidingSegmentDiagnosis, WatchdogFlipNeverTurnsTrailingTotalsNegative) {
  // Same toy as SlotReuseDoesNotBlindTrailingView — slot i covers exactly link i — plus a
  // server node as the pinger: all three slots are reported by that one server, so flipping
  // it retracts everything (the watchdog only flips servers).
  Topology topo("toy");
  std::vector<NodeId> nodes;
  for (int i = 0; i <= 3; ++i) {
    nodes.push_back(topo.AddNode(NodeKind::kTor, 0, i, "n" + std::to_string(i)));
  }
  std::vector<LinkId> links;
  for (int i = 0; i < 3; ++i) {
    links.push_back(topo.AddLink(nodes[static_cast<size_t>(i)],
                                 nodes[static_cast<size_t>(i) + 1], 1));
  }
  const NodeId pinger = topo.AddNode(NodeKind::kServer, 0, 99, "pinger");
  PathStore paths;
  for (int i = 0; i < 3; ++i) {
    const std::vector<LinkId> path_links = {links[static_cast<size_t>(i)]};
    paths.Add(0, 1, path_links);
  }
  const ProbeMatrix matrix(std::move(paths), LinkIndex::ForMonitored(topo));
  Watchdog wd(topo);

  Diagnoser diagnoser;
  diagnoser.set_sliding_segments(2);
  ObservationStore& store = diagnoser.store();
  store.EnsureSlots(3);
  ObservationStore::Shard& shard = store.OpenShard(pinger);

  auto expect_trailing = [&](int64_t sent, int64_t lost, const char* when) {
    const ObservationView trailing = diagnoser.TrailingTotals(3);
    for (size_t slot = 0; slot < 3; ++slot) {
      EXPECT_EQ(trailing[slot].sent, sent) << when << " slot " << slot;
      EXPECT_EQ(trailing[slot].lost, lost) << when << " slot " << slot;
      EXPECT_GE(trailing[slot].sent, 0) << when << " slot " << slot << " went negative";
      EXPECT_GE(trailing[slot].lost, 0) << when << " slot " << slot << " went negative";
    }
  };

  // One healthy segment: the ring holds its +100 delta per slot.
  for (PathId slot = 0; slot < 3; ++slot) {
    shard.RecordPath(slot, nodes[static_cast<size_t>(slot) + 1], 100, 0);
  }
  diagnoser.AdvanceSegment(matrix, wd);
  expect_trailing(100, 0, "healthy segment");

  // The watchdog flags the pinger: its records retract from the totals with no epoch bump.
  // The flipped slots restart — trailing drops to zero at this boundary, not below it.
  wd.MarkDown(pinger);
  diagnoser.AdvanceSegment(matrix, wd);
  expect_trailing(0, 0, "flip segment");
  EXPECT_TRUE(diagnoser.DiagnoseTrailing(matrix, wd).links.empty());

  // Two more idle segments age the pre-flip delta fully out of the W=2 ring. Pre-fix the
  // lone -100 retraction delta now surfaces: trailing sent = -100.
  diagnoser.AdvanceSegment(matrix, wd);
  expect_trailing(0, 0, "+1 segment after flip");
  diagnoser.AdvanceSegment(matrix, wd);
  expect_trailing(0, 0, "+2 segments after flip");

  // Recovery flips the records back in — another restart, so no phantom +100 spike enters
  // the ring either; the slot resumes with genuinely new traffic only.
  wd.MarkUp(pinger);
  diagnoser.AdvanceSegment(matrix, wd);
  expect_trailing(0, 0, "recovery segment");

  // Fresh post-recovery traffic is the only thing the trailing view sees, and it is
  // immediately diagnosable: full loss on link 1 localizes at the very next boundary.
  shard.RecordPath(0, nodes[1], 100, 0);
  shard.RecordPath(1, nodes[2], 100, 100);
  shard.RecordPath(2, nodes[3], 100, 0);
  diagnoser.AdvanceSegment(matrix, wd);
  const ObservationView trailing = diagnoser.TrailingTotals(3);
  EXPECT_EQ(trailing[0].sent, 100);
  EXPECT_EQ(trailing[0].lost, 0);
  EXPECT_EQ(trailing[1].sent, 100);
  EXPECT_EQ(trailing[1].lost, 100);
  const LocalizeResult result = diagnoser.DiagnoseTrailing(matrix, wd);
  ASSERT_EQ(result.links.size(), 1u);
  EXPECT_EQ(result.links[0].link, links[1]);
  EXPECT_GT(result.links[0].estimated_loss_rate, 0.9);
}

// A trailing read over a matrix that grew since the last boundary sizes the trailing view to
// the new slot count, and the next AdvanceSegment must find every per-slot array of the
// view — boundary totals, boundary epochs, trailing sums — that long. When the read grew the
// totals but not the epochs, that boundary indexed past the end of the epochs (an abort
// under -D_GLIBCXX_ASSERTIONS).
TEST(SlidingSegmentDiagnosis, TrailingReadOverGrownMatrixKeepsTheViewWhole) {
  Topology topo("toy");
  std::vector<NodeId> nodes;
  for (int i = 0; i <= 3; ++i) {
    nodes.push_back(topo.AddNode(NodeKind::kTor, 0, i, "n" + std::to_string(i)));
  }
  std::vector<LinkId> links;
  for (int i = 0; i < 3; ++i) {
    links.push_back(topo.AddLink(nodes[static_cast<size_t>(i)],
                                 nodes[static_cast<size_t>(i) + 1], 1));
  }
  // The same single-link probe paths, over two links and then over all three.
  auto matrix_over = [&](int num_links) {
    PathStore paths;
    for (int i = 0; i < num_links; ++i) {
      const std::vector<LinkId> path_links = {links[static_cast<size_t>(i)]};
      paths.Add(0, 1, path_links);
    }
    return ProbeMatrix(std::move(paths), LinkIndex::ForMonitored(topo));
  };
  const ProbeMatrix two = matrix_over(2);
  const ProbeMatrix three = matrix_over(3);
  Watchdog wd(topo);

  Diagnoser diagnoser;
  diagnoser.set_sliding_segments(2);
  ObservationStore& store = diagnoser.store();
  diagnoser.AdvanceSegment(two, wd);
  EXPECT_TRUE(diagnoser.DiagnoseTrailing(three, wd).links.empty());

  store.EnsureSlots(3);
  store.OpenShard(nodes[0]).RecordPath(2, nodes[3], 100, 40);
  diagnoser.AdvanceSegment(three, wd);

  const ObservationView trailing = diagnoser.TrailingTotals(3);
  EXPECT_EQ(trailing[0].sent, 0);
  EXPECT_EQ(trailing[1].sent, 0);
  EXPECT_EQ(trailing[2].sent, 100);
  EXPECT_EQ(trailing[2].lost, 40);
}

// End-to-end churn-during-episode gate: a loss episode is live while a topology delta forces
// an incremental repair (slot vacate + reuse) on the same probe plane. The sliding view must
// localize the episode despite the mid-episode churn and report it gone after it leaves the
// trailing window.
TEST(SlidingSegmentDiagnosis, ChurnDuringEpisodeStillLocalized) {
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  DetectorSystemOptions options;
  options.pmc.alpha = 1;
  options.pmc.beta = 1;
  options.controller.packets_per_second = 120;
  options.confirm_packets = 0;
  options.probe.base_loss_rate = 0.0;
  options.pll.preprocess.path_loss_ratio_threshold = 0.2;
  options.segments_per_window = 15;  // 2 s slices
  options.diagnose_every_segments = 1;
  options.streaming_view = StreamingViewMode::kSliding;
  options.sliding_window_segments = 2;

  // The churn (an agg-core link in the episode's pod flaps down) lands at 6 s; the repair
  // vacates every path through it and reuses their slots. The episode then runs [8 s, 12 s)
  // — entirely after the churn, where a blinded reused slot would still be inside its
  // retraction window without epoch-keyed ring deltas.
  std::vector<ChurnEvent> churn;
  churn.push_back(ChurnEvent{6.0, TopologyDelta::LinkDown(ft.AggCoreLink(1, 0, 1))});

  const LinkId episode_link = ft.EdgeAggLink(1, 0, 1);
  FailureScenario scenario;
  FailureEpisode episode;
  episode.failure.link = episode_link;
  episode.failure.type = FailureType::kFullLoss;
  episode.start_seconds = 8.0;
  episode.end_seconds = 12.0;
  scenario.episodes.push_back(episode);

  DetectorSystem system(routing, options);
  Rng rng(303);
  const auto streamed = system.RunWindowStreaming(scenario, churn, rng);
  EXPECT_EQ(streamed.window.churn_events_applied, 1u);

  // Localized while live or within the trailing window behind it...
  const double first = streamed.FirstDetectionSeconds(episode_link);
  ASSERT_GT(first, episode.start_seconds) << "episode never localized under churn";
  EXPECT_LE(first, episode.end_seconds + 1e-9);
  // ...and clear at every boundary after it leaves the trailing window (12 s + 4 s).
  for (const auto& d : streamed.timeline) {
    if (d.time_seconds <= 16.0 + 1e-9 || &d == &streamed.timeline.back()) {
      continue;  // the final entry is the cumulative window-end diagnosis
    }
    for (const SuspectLink& s : d.localization.links) {
      EXPECT_NE(s.link, episode_link)
          << "boundary at " << d.time_seconds << " s still names the cleared episode";
    }
  }
}

}  // namespace
}  // namespace detector
