// Churn-pipeline tests: link-state overlay semantics, path invalidation, incremental
// probe-matrix repair (including incremental/full equivalence after delta sequences), churn
// trace generation, pinglist delta dispatch with versioning, and the end-to-end
// ApplyTopologyDelta / mid-window churn flow.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "src/detector/system.h"
#include "src/pmc/identifiability.h"
#include "src/pmc/incremental.h"
#include "src/pmc/structured_fattree.h"
#include "src/routing/bcube_routing.h"
#include "src/routing/fattree_routing.h"
#include "src/routing/path_liveness.h"
#include "src/sim/churn.h"
#include "src/topo/bcube.h"
#include "src/topo/delta.h"
#include "src/topo/fattree.h"
#include "tests/store_reference.h"

namespace detector {
namespace {

TEST(LinkStateOverlay, EffectiveTransitionsAndVersioning) {
  const FatTree ft(4);
  const Topology& topo = ft.topology();
  LinkStateOverlay overlay(topo);
  const LinkId link = ft.EdgeAggLink(0, 0, 0);

  auto effect = overlay.Apply(TopologyDelta::LinkDown(link));
  EXPECT_EQ(effect.now_dead, (std::vector<LinkId>{link}));
  EXPECT_TRUE(effect.now_live.empty());
  EXPECT_EQ(effect.version, 1u);
  EXPECT_FALSE(overlay.IsLinkLive(link));
  EXPECT_TRUE(overlay.IsLinkFailed(link));

  // Redundant event: no transitions, no version bump.
  effect = overlay.Apply(TopologyDelta::LinkDown(link));
  EXPECT_TRUE(effect.empty());
  EXPECT_EQ(overlay.version(), 1u);

  effect = overlay.Apply(TopologyDelta::LinkUp(link));
  EXPECT_EQ(effect.now_live, (std::vector<LinkId>{link}));
  EXPECT_TRUE(overlay.IsLinkLive(link));
  EXPECT_EQ(overlay.version(), 2u);
}

TEST(LinkStateOverlay, NodeChurnTakesIncidentLinksDown) {
  const FatTree ft(4);
  const Topology& topo = ft.topology();
  LinkStateOverlay overlay(topo);
  const NodeId agg = ft.Agg(1, 0);

  const auto down = overlay.Apply(TopologyDelta::NodeDown(agg));
  EXPECT_EQ(down.now_dead.size(), topo.NeighborsOf(agg).size());
  for (const Neighbor& nb : topo.NeighborsOf(agg)) {
    EXPECT_FALSE(overlay.IsLinkLive(nb.link));
  }

  // A link event on a dead-node link changes nothing until the node returns.
  const LinkId l = topo.NeighborsOf(agg).front().link;
  EXPECT_TRUE(overlay.Apply(TopologyDelta::LinkUp(l)).empty());

  const auto up = overlay.Apply(TopologyDelta::NodeUp(agg));
  EXPECT_EQ(up.now_live.size(), down.now_dead.size());
  EXPECT_EQ(overlay.NumDeadLinks(), 0u);
}

TEST(LinkStateOverlay, DrainIsDeadButNotFailed) {
  const FatTree ft(4);
  LinkStateOverlay overlay(ft.topology());
  const LinkId link = ft.AggCoreLink(0, 0, 0);
  overlay.Apply(TopologyDelta::LinkDrain(link));
  EXPECT_FALSE(overlay.IsLinkLive(link));    // removed from the probe plane
  EXPECT_FALSE(overlay.IsLinkFailed(link));  // but still forwarding: no loss injection
  EXPECT_TRUE(overlay.FailedLinks().empty());
  overlay.Apply(TopologyDelta::LinkUndrain(link));
  EXPECT_TRUE(overlay.IsLinkLive(link));
}

TEST(PathLiveness, FlapInvalidationAndCompaction) {
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  const PathStore candidates = routing.Enumerate(PathEnumMode::kFull);
  PathLiveness liveness(candidates, ft.topology().NumLinks());
  EXPECT_EQ(liveness.NumAlive(), candidates.size());

  const LinkId link = ft.AggCoreLink(0, 0, 0);
  const size_t through = liveness.PathsThrough(link).size();
  EXPECT_GT(through, 0u);
  liveness.LinkDown(link);
  EXPECT_EQ(liveness.NumAlive(), candidates.size() - through);
  for (const PathId p : liveness.PathsThrough(link)) {
    EXPECT_FALSE(liveness.IsAlive(p));
  }
  liveness.LinkDown(link);  // idempotent
  EXPECT_EQ(liveness.NumAlive(), candidates.size() - through);

  std::vector<PathId> kept;
  const PathStore compact = CompactAlive(candidates, liveness, &kept);
  EXPECT_EQ(compact.size(), liveness.NumAlive());
  for (size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(compact.src(static_cast<PathId>(i)), candidates.src(kept[i]));
    EXPECT_EQ(compact.PathLength(static_cast<PathId>(i)),
              candidates.PathLength(kept[i]));
  }

  liveness.LinkUp(link);
  EXPECT_EQ(liveness.NumAlive(), candidates.size());
}

// Recomputes per-link selected-path counts from scratch and cross-checks the incremental
// weights, the alpha invariant on live links, and that no selected path crosses a dead link.
void CheckIncrementalInvariants(const IncrementalPmc& inc, const LinkStateOverlay& overlay) {
  const Topology& topo = overlay.topology();
  std::vector<int32_t> recount(topo.NumLinks(), 0);
  for (const PathId pid : inc.SelectedCandidateIds()) {
    for (const LinkId link : inc.candidates().Links(pid)) {
      EXPECT_TRUE(overlay.IsLinkLive(link))
          << "selected path " << pid << " crosses dead link " << topo.LinkName(link);
      ++recount[static_cast<size_t>(link)];
    }
  }
  for (size_t l = 0; l < topo.NumLinks(); ++l) {
    const LinkId link = static_cast<LinkId>(l);
    if (!topo.link(link).monitored) {
      continue;
    }
    EXPECT_EQ(inc.Weight(link), recount[l]) << topo.LinkName(link);
    if (overlay.IsLinkLive(link)) {
      EXPECT_GE(inc.Weight(link), inc.options().alpha)
          << "live link undercovered: " << topo.LinkName(link);
    }
  }
}

// From-scratch rebuild on the post-churn topology: alive candidates over live monitored links.
PmcResult ScratchRebuild(const IncrementalPmc& inc, const LinkStateOverlay& overlay) {
  std::vector<PathId> kept;
  const PathStore alive = CompactAlive(inc.candidates(), inc.liveness(), &kept);
  return BuildProbeMatrixFromCandidates(
      inc.topology(), alive, inc.options(),
      LinkIndex::ForLinks(inc.topology(), overlay.LiveMonitoredLinks()));
}

TEST(IncrementalPmc, SingleLinkDeltaKeepsInvariants) {
  const FatTree ft(6);
  const FatTreeRouting routing(ft);
  PmcOptions options;
  options.alpha = 2;
  options.beta = 1;
  IncrementalPmc inc(ft.topology(), routing.Enumerate(PathEnumMode::kFull), options);
  LinkStateOverlay overlay(ft.topology());
  EXPECT_TRUE(inc.initial_stats().alpha_satisfied);

  const LinkId link = ft.AggCoreLink(2, 1, 0);
  const auto outcome = inc.ApplyDelta(overlay.Apply(TopologyDelta::LinkDown(link)));
  EXPECT_GT(outcome.stats.dropped_paths, 0u);
  EXPECT_TRUE(outcome.stats.alpha_satisfied);
  EXPECT_TRUE(outcome.stats.fully_resolved);
  EXPECT_EQ(outcome.stats.touched_components, 1);  // Observation 1: repair stays in one core group
  EXPECT_EQ(outcome.removed_slots.size(), outcome.stats.dropped_paths);
  CheckIncrementalInvariants(inc, overlay);

  // The live-restricted matrix is still 1-identifiable, like a from-scratch rebuild.
  const auto report = VerifyIdentifiability(inc.BuildLiveMatrix(), 1);
  EXPECT_TRUE(report.covered);
  EXPECT_GE(report.achieved_beta, 1) << report.counterexample;

  const PmcResult scratch = ScratchRebuild(inc, overlay);
  EXPECT_EQ(outcome.stats.alpha_satisfied, scratch.stats.alpha_satisfied);
  EXPECT_EQ(outcome.stats.fully_resolved, scratch.stats.fully_resolved);
}

TEST(IncrementalPmc, DeltaSequenceMatchesScratchRebuild) {
  const FatTree ft(6);
  const FatTreeRouting routing(ft);
  PmcOptions options;
  options.alpha = 1;
  options.beta = 1;
  IncrementalPmc inc(ft.topology(), routing.Enumerate(PathEnumMode::kFull), options);
  LinkStateOverlay overlay(ft.topology());

  // A mixed storm: failures, a drain, a switch reboot, and recoveries interleaved.
  const std::vector<TopologyDelta> sequence = {
      TopologyDelta::LinkDown(ft.AggCoreLink(0, 0, 0)),
      TopologyDelta::LinkDrain(ft.EdgeAggLink(1, 1, 2)),
      TopologyDelta::NodeDown(ft.Agg(3, 2)),
      TopologyDelta::LinkDown(ft.AggCoreLink(5, 0, 1)),
      TopologyDelta::LinkUp(ft.AggCoreLink(0, 0, 0)),
      TopologyDelta::NodeUp(ft.Agg(3, 2)),
      TopologyDelta::LinkUndrain(ft.EdgeAggLink(1, 1, 2)),
      TopologyDelta::LinkUp(ft.AggCoreLink(5, 0, 1)),
  };
  for (const TopologyDelta& delta : sequence) {
    const auto outcome = inc.ApplyDelta(overlay.Apply(delta));
    CheckIncrementalInvariants(inc, overlay);
    // Incremental repair must land exactly where a from-scratch rebuild of the post-churn
    // topology lands: same coverage verdict, same partition-resolution verdict.
    const PmcResult scratch = ScratchRebuild(inc, overlay);
    EXPECT_EQ(outcome.stats.alpha_satisfied, scratch.stats.alpha_satisfied);
    EXPECT_EQ(outcome.stats.fully_resolved, scratch.stats.fully_resolved);
    EXPECT_EQ(inc.AlphaSatisfied(), scratch.stats.alpha_satisfied);
    if (options.beta >= 1 && outcome.stats.fully_resolved) {
      const auto report = VerifyIdentifiability(inc.BuildLiveMatrix(), 1);
      EXPECT_GE(report.achieved_beta, 1) << report.counterexample;
    }
  }
  // The storm fully recovered: the overlay is clean and coverage is whole again.
  EXPECT_EQ(overlay.NumDeadLinks(), 0u);
  EXPECT_TRUE(inc.AlphaSatisfied());
}

TEST(IncrementalPmc, BcubeSingleComponentRepair) {
  const Bcube bc(4, 1);
  const BcubeRouting routing(bc);
  PmcOptions options;
  options.alpha = 1;
  options.beta = 1;
  IncrementalPmc inc(bc.topology(), routing.Enumerate(PathEnumMode::kFull), options);
  LinkStateOverlay overlay(bc.topology());

  const LinkId victim = bc.topology().MonitoredLinks().front();
  const auto outcome = inc.ApplyDelta(overlay.Apply(TopologyDelta::LinkDown(victim)));
  EXPECT_EQ(outcome.stats.touched_components, 1);
  CheckIncrementalInvariants(inc, overlay);
  const PmcResult scratch = ScratchRebuild(inc, overlay);
  EXPECT_EQ(outcome.stats.alpha_satisfied, scratch.stats.alpha_satisfied);
  EXPECT_EQ(outcome.stats.fully_resolved, scratch.stats.fully_resolved);

  inc.ApplyDelta(overlay.Apply(TopologyDelta::LinkUp(victim)));
  CheckIncrementalInvariants(inc, overlay);
  EXPECT_TRUE(inc.AlphaSatisfied());
}

TEST(IncrementalPmc, MultiComponentRepairMatchesPinnedTrace) {
  // Repair outcomes pinned across commits: a change that claims to move no slot id or repair
  // stat must hash to the literal captured before it. A maintenance wave through a ToR
  // dirties every core-group component at once (its k/2 uplinks reach one agg, and so one
  // core group, each); a seeded churn trace then adds failures, drains, switch reboots and
  // recoveries. The hash covers every delta's vacated and filled slots and repair counters
  // (not its seconds), the final slot layout and the selection.
  constexpr uint64_t kPinned = 0x66da0865fb377073ULL;
  const FatTree ft(8);
  const FatTreeRouting routing(ft);
  PmcOptions options;
  options.alpha = 2;
  options.beta = 1;
  IncrementalPmc inc(ft.topology(), routing.Enumerate(PathEnumMode::kFull), options);
  LinkStateOverlay overlay(ft.topology());

  std::vector<TopologyDelta> deltas = {
      TopologyDelta::NodeDown(ft.Tor(2, 1)),
      TopologyDelta::NodeDown(ft.Agg(5, 0)),
      TopologyDelta::NodeUp(ft.Tor(2, 1)),
      TopologyDelta::NodeUp(ft.Agg(5, 0)),
  };
  ChurnOptions churn;
  churn.node_events_per_minute = 1.0;
  Rng rng(31);
  for (const ChurnEvent& event : ChurnGenerator(ft.topology(), churn).Sample(600.0, rng)) {
    deltas.push_back(event.delta);
  }

  uint64_t h = 0;
  const auto mix = [&h](uint64_t value) { h = HashCombine(h, value); };
  const auto mix_slots = [&mix](const std::vector<PathId>& slots) {
    mix(slots.size());
    for (const PathId slot : slots) {
      mix(static_cast<uint64_t>(slot));
    }
  };
  int multi_component_repairs = 0;
  for (const TopologyDelta& delta : deltas) {
    const auto outcome = inc.ApplyDelta(overlay.Apply(delta));
    const ChurnRepairStats& stats = outcome.stats;
    multi_component_repairs += stats.touched_components > 1 ? 1 : 0;
    mix_slots(outcome.removed_slots);
    mix_slots(outcome.added_slots);
    mix(stats.dropped_paths);
    mix(stats.added_paths);
    mix(stats.repaired_links);
    mix(stats.pool_candidates);
    mix(stats.score_evaluations);
    mix(static_cast<uint64_t>(stats.touched_components));
    mix(static_cast<uint64_t>(stats.uncoverable_live_links));
    mix(stats.alpha_satisfied ? 1 : 0);
    mix(stats.fully_resolved ? 1 : 0);
  }
  EXPECT_GT(multi_component_repairs, 0) << "the trace never exercised a multi-component repair";
  CheckIncrementalInvariants(inc, overlay);
  mix(inc.NumSlots());
  for (size_t s = 0; s < inc.NumSlots(); ++s) {
    mix(static_cast<uint64_t>(inc.SlotCandidate(static_cast<PathId>(s))));
  }
  mix_slots(inc.SelectedCandidateIds());
  EXPECT_EQ(h, kPinned) << std::hex << h << std::dec << " over " << deltas.size()
                        << " deltas, " << multi_component_repairs << " multi-component";
}

TEST(IncrementalPmc, SlotsAreStableAcrossDeltas) {
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  PmcOptions options;
  options.alpha = 1;
  options.beta = 1;
  IncrementalPmc inc(ft.topology(), routing.Enumerate(PathEnumMode::kFull), options);
  LinkStateOverlay overlay(ft.topology());

  // Record the candidate occupying every slot, knock a link out, and verify untouched slots
  // still hold the same candidate (pinglist entries keyed by slot id stay valid).
  std::vector<PathId> before(inc.NumSlots());
  for (size_t s = 0; s < inc.NumSlots(); ++s) {
    before[s] = inc.SlotCandidate(static_cast<PathId>(s));
  }
  const auto outcome =
      inc.ApplyDelta(overlay.Apply(TopologyDelta::LinkDown(ft.AggCoreLink(0, 0, 0))));
  const std::set<PathId> removed(outcome.removed_slots.begin(), outcome.removed_slots.end());
  const std::set<PathId> added(outcome.added_slots.begin(), outcome.added_slots.end());
  for (size_t s = 0; s < before.size(); ++s) {
    const PathId slot = static_cast<PathId>(s);
    if (removed.count(slot) == 0 && added.count(slot) == 0) {
      EXPECT_EQ(inc.SlotCandidate(slot), before[s]) << "slot " << s;
    }
  }
  // Vacated slots are reused before the matrix grows.
  EXPECT_LE(inc.NumSlots(), before.size() + outcome.added_slots.size());
}

TEST(ChurnGenerator, TracesAreSortedPairedAndDeterministic) {
  const FatTree ft(4);
  ChurnOptions options;
  options.link_events_per_minute = 30.0;
  options.node_events_per_minute = 5.0;
  options.drain_fraction = 0.3;
  options.mean_outage_seconds = 10.0;
  const ChurnGenerator gen(ft.topology(), options);

  Rng rng(42);
  const auto events = gen.Sample(120.0, rng);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.size() % 2, 0u);  // every outage carries its recovery
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].time_seconds, events[i].time_seconds);
  }

  // Applying the full trace restores the overlay exactly.
  LinkStateOverlay overlay(ft.topology());
  int downs = 0;
  int drains = 0;
  for (const ChurnEvent& event : events) {
    for (const LinkChurn& lc : event.delta.links) {
      downs += lc.action == ChurnAction::kDown ? 1 : 0;
      drains += lc.action == ChurnAction::kDrain ? 1 : 0;
    }
    overlay.Apply(event.delta);
  }
  EXPECT_GT(downs, 0);
  EXPECT_GT(drains, 0);
  EXPECT_EQ(overlay.NumDeadLinks(), 0u);

  Rng rng2(42);
  const auto replay = gen.Sample(120.0, rng2);
  ASSERT_EQ(replay.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_DOUBLE_EQ(replay[i].time_seconds, events[i].time_seconds);
  }
}

TEST(ChurnGenerator, PerLinkOutagesNeverOverlap) {
  // Replaying a trace through the boolean overlay truncates overlapping same-link outages, so
  // the generator must never emit them.
  const FatTree ft(4);
  ChurnOptions options;
  options.link_events_per_minute = 120.0;  // dense enough to collide without the guard
  options.node_events_per_minute = 0.0;
  options.drain_fraction = 0.0;
  options.mean_outage_seconds = 30.0;
  const ChurnGenerator gen(ft.topology(), options);
  Rng rng(7);
  const auto events = gen.Sample(300.0, rng);
  ASSERT_FALSE(events.empty());

  std::map<LinkId, std::vector<std::pair<double, double>>> outages;  // link -> [down, up)
  std::map<LinkId, double> open;
  for (const ChurnEvent& event : events) {
    for (const LinkChurn& lc : event.delta.links) {
      if (lc.action == ChurnAction::kDown) {
        ASSERT_EQ(open.count(lc.link), 0u) << "overlapping outage on link " << lc.link;
        open[lc.link] = event.time_seconds;
      } else {
        auto it = open.find(lc.link);
        ASSERT_NE(it, open.end());
        outages[lc.link].emplace_back(it->second, event.time_seconds);
        open.erase(it);
      }
    }
  }
  EXPECT_TRUE(open.empty());
  for (const auto& [link, intervals] : outages) {
    for (size_t i = 1; i < intervals.size(); ++i) {
      EXPECT_GE(intervals[i].first, intervals[i - 1].second) << "link " << link;
    }
  }
}

TEST(Diagnoser, DropReportsDiscardsBufferedPaths) {
  const FatTree ft(4);
  Diagnoser diagnoser;
  PingerWindowResult window;
  window.pinger = ft.Server(0, 0, 0);
  window.reports.push_back(PathReport{3, ft.Server(1, 0, 0), 100, 40, {}});
  window.reports.push_back(PathReport{5, ft.Server(2, 0, 0), 100, 0, {}});
  window.reports.push_back(
      PathReport{PinglistEntry::kIntraRackPath, ft.Server(0, 0, 1), 100, 10, {}});
  diagnoser.Ingest(window);

  const std::vector<PathId> dropped = {3};
  diagnoser.DropReports(dropped);

  const FatTreeRouting routing(ft);
  PmcOptions pmc;
  pmc.alpha = 1;
  const ProbeMatrix matrix = BuildProbeMatrix(routing, PathEnumMode::kFull, pmc).matrix;
  Watchdog wd(ft.topology());
  const Observations obs = StoreReference::Snapshot(diagnoser.store(), matrix.NumPaths(), wd);
  EXPECT_EQ(obs[3].sent, 0);  // dropped path's stale report is gone
  EXPECT_EQ(obs[5].sent, 100);
  // Intra-rack reports (negative path ids) are untouched.
  EXPECT_EQ(diagnoser.ServerLinkAlarms(wd).size(), 1u);
}

class PinglistUpdateTest : public ::testing::Test {
 protected:
  PinglistUpdateTest() : ft_(4), routing_(ft_), watchdog_(ft_.topology()) {
    PmcOptions pmc;
    pmc.alpha = 1;
    pmc.beta = 1;
    matrix_ = BuildProbeMatrix(routing_, PathEnumMode::kFull, pmc).matrix;
  }

  FatTree ft_;
  FatTreeRouting routing_;
  Watchdog watchdog_;
  ProbeMatrix matrix_;
};

// What one pinger's list lost and gained between two snapshots of the standing lists, by
// (path, target) entry key, and its version in each (0 where the pinger had no list).
using EntryKeys = std::vector<std::pair<PathId, NodeId>>;

struct ListChange {
  int version_before = 0;
  int version_after = 0;
  EntryKeys lost;
  EntryKeys gained;
};

std::map<NodeId, ListChange> ListChanges(const std::vector<Pinglist>& before,
                                         const std::vector<Pinglist>& after) {
  auto keys_of = [](const Pinglist& list) {
    EntryKeys keys;
    for (const PinglistEntry& entry : list.entries) {
      keys.emplace_back(entry.path_id, entry.target_server);
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  };
  std::map<NodeId, ListChange> changes;
  std::map<NodeId, std::pair<EntryKeys, EntryKeys>> keys;  // before, after
  for (const Pinglist& list : before) {
    changes[list.pinger].version_before = list.version;
    keys[list.pinger].first = keys_of(list);
  }
  for (const Pinglist& list : after) {
    changes[list.pinger].version_after = list.version;
    keys[list.pinger].second = keys_of(list);
  }
  for (auto& [pinger, change] : changes) {
    const auto& [b, a] = keys[pinger];
    std::set_difference(b.begin(), b.end(), a.begin(), a.end(),
                        std::back_inserter(change.lost));
    std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(change.gained));
  }
  return changes;
}

TEST_F(PinglistUpdateTest, MinimalUpdateWithVersionBump) {
  Controller controller(ft_.topology(), ControllerOptions{});
  std::vector<Pinglist> lists = controller.BuildPinglists(matrix_, watchdog_);
  PathPingerIndex index = PathPingerIndex::Build(lists);
  for (const Pinglist& list : lists) {
    EXPECT_EQ(list.version, 1);
  }

  // Remove one path: only its pingers' lists change, each losing exactly its replica and
  // carrying version 2; every other list keeps version 1.
  const PathId victim = 0;
  std::set<NodeId> expected_touched;
  NodeId victim_target = kInvalidNode;
  for (const Pinglist& list : lists) {
    for (const PinglistEntry& entry : list.entries) {
      if (entry.path_id == victim) {
        expected_touched.insert(list.pinger);
        victim_target = entry.target_server;  // replicas share the path's responder
      }
    }
  }
  ASSERT_FALSE(expected_touched.empty());
  const EntryKeys victim_key = {{victim, victim_target}};

  const std::vector<PathId> removed = {victim};
  std::vector<Pinglist> before = lists;
  const PinglistUpdate update =
      controller.UpdatePinglists(lists, matrix_, watchdog_, removed, {}, {}, {}, &index);
  EXPECT_EQ(update.paths_removed, 1u);
  EXPECT_EQ(update.paths_added, 0u);
  EXPECT_EQ(update.lists_touched, expected_touched.size());
  EXPECT_EQ(update.entries_removed, expected_touched.size());  // one replica per pinger
  EXPECT_EQ(update.entries_added, 0u);
  ASSERT_EQ(lists.size(), before.size());
  for (const auto& [pinger, change] : ListChanges(before, lists)) {
    const bool touched = expected_touched.count(pinger) > 0;
    EXPECT_EQ(change.version_after, touched ? 2 : 1) << "pinger " << pinger;
    EXPECT_EQ(change.lost, touched ? victim_key : EntryKeys{});
    EXPECT_TRUE(change.gained.empty());
  }

  // Add it back: the entries return to the same pingers (deterministic assignment), and
  // exactly those lists carry version 3.
  before = lists;
  const PinglistUpdate re_add =
      controller.UpdatePinglists(lists, matrix_, watchdog_, {}, removed, {}, {}, &index);
  EXPECT_EQ(re_add.paths_removed, 0u);
  EXPECT_EQ(re_add.paths_added, 1u);
  EXPECT_EQ(re_add.lists_touched, expected_touched.size());
  EXPECT_EQ(re_add.entries_added, expected_touched.size());
  EXPECT_EQ(re_add.entries_removed, 0u);
  for (const auto& [pinger, change] : ListChanges(before, lists)) {
    const bool touched = expected_touched.count(pinger) > 0;
    EXPECT_EQ(change.version_after, touched ? 3 : change.version_before) << "pinger " << pinger;
    EXPECT_TRUE(change.lost.empty());
    EXPECT_EQ(change.gained, touched ? victim_key : EntryKeys{});
  }
}

// The index-driven dispatch against a scan oracle: before each call the lists are scanned
// for the holders of the removed slots; after it, exactly those pingers' lists lost entries
// and carry the call's version, the maintained index equals one rebuilt from the lists for
// every slot, and no removed slot keeps a pinger.
TEST_F(PinglistUpdateTest, IndexedDispatchMatchesScanOracle) {
  Controller controller(ft_.topology(), ControllerOptions{});
  std::vector<Pinglist> lists = controller.BuildPinglists(matrix_, watchdog_);
  PathPingerIndex index = PathPingerIndex::Build(lists);
  EXPECT_EQ(index.NumIndexedPaths(), matrix_.NumPaths());

  auto sorted = [](std::span<const NodeId> pingers) {
    std::vector<NodeId> out(pingers.begin(), pingers.end());
    std::sort(out.begin(), out.end());
    return out;
  };
  int version = 1;
  auto dispatch = [&](const std::vector<PathId>& removed, const std::vector<PathId>& added) {
    std::set<NodeId> holders;
    size_t held = 0;
    for (const Pinglist& list : lists) {
      for (const PinglistEntry& entry : list.entries) {
        if (std::count(removed.begin(), removed.end(), entry.path_id) > 0) {
          holders.insert(list.pinger);
          ++held;
        }
      }
    }
    const std::vector<Pinglist> before = lists;
    const PinglistUpdate update =
        controller.UpdatePinglists(lists, matrix_, watchdog_, removed, added, {}, {}, &index);
    ++version;
    std::set<NodeId> removers;
    size_t touched = 0;
    size_t lost = 0;
    size_t gained = 0;
    for (const auto& [pinger, change] : ListChanges(before, lists)) {
      if (!change.lost.empty()) {
        removers.insert(pinger);
      }
      const bool changed = !change.lost.empty() || !change.gained.empty();
      touched += changed ? 1 : 0;
      lost += change.lost.size();
      gained += change.gained.size();
      EXPECT_EQ(change.version_after, changed ? version : change.version_before)
          << "pinger " << pinger;
    }
    EXPECT_EQ(removers, holders);
    EXPECT_EQ(update.entries_removed, held);
    EXPECT_EQ(update.entries_removed, lost);
    EXPECT_EQ(update.entries_added, gained);
    EXPECT_EQ(update.lists_touched, touched);
    const PathPingerIndex rebuilt = PathPingerIndex::Build(lists);
    for (PathId pid = 0; pid < static_cast<PathId>(matrix_.NumPaths()); ++pid) {
      EXPECT_EQ(sorted(index.PingersOf(pid)), sorted(rebuilt.PingersOf(pid))) << "slot " << pid;
    }
    for (const PathId pid : removed) {
      EXPECT_TRUE(rebuilt.PingersOf(pid).empty()) << "slot " << pid;
    }
  };

  // Removal, re-addition, and a repair-shaped mixed delta (one standing slot vacated, one
  // absent slot re-selected), with the index kept current across calls.
  dispatch({0, 3, 7}, {});
  dispatch({}, {0, 3});
  dispatch({0}, {7});
  EXPECT_EQ(index.NumIndexedPaths(), matrix_.NumPaths() - 1);  // path 0 still out
}

TEST_F(PinglistUpdateTest, EmptyDeltaTouchesNothing) {
  Controller controller(ft_.topology(), ControllerOptions{});
  std::vector<Pinglist> lists = controller.BuildPinglists(matrix_, watchdog_);
  PathPingerIndex index = PathPingerIndex::Build(lists);
  const std::vector<Pinglist> before = lists;
  const PinglistUpdate update =
      controller.UpdatePinglists(lists, matrix_, watchdog_, {}, {}, {}, {}, &index);
  EXPECT_EQ(update.paths_removed + update.paths_added, 0u);
  EXPECT_EQ(update.entries_removed + update.entries_added, 0u);
  EXPECT_EQ(update.lists_touched, 0u);
  for (const auto& [pinger, change] : ListChanges(before, lists)) {
    EXPECT_TRUE(change.lost.empty() && change.gained.empty()) << "pinger " << pinger;
    EXPECT_EQ(change.version_after, 1);
  }

  // The empty delta took no version: the next list the controller touches carries 2.
  const std::vector<PathId> removed = {0};
  controller.UpdatePinglists(lists, matrix_, watchdog_, removed, {}, {}, {}, &index);
  for (const auto& [pinger, change] : ListChanges(before, lists)) {
    EXPECT_EQ(change.version_after, change.lost.empty() ? 1 : 2) << "pinger " << pinger;
  }
}

TEST_F(PinglistUpdateTest, UpdatedPinglistXmlRoundTripWithIntraRack) {
  ControllerOptions options;
  options.intra_rack_probes = true;
  Controller controller(ft_.topology(), options);
  std::vector<Pinglist> lists = controller.BuildPinglists(matrix_, watchdog_);
  PathPingerIndex index = PathPingerIndex::Build(lists);
  const std::vector<PathId> removed_one = {0};
  controller.UpdatePinglists(lists, matrix_, watchdog_, removed_one, {}, {}, {}, &index);

  // Round-trip a post-update pinglist that still carries intra-rack entries: the bumped
  // version and every entry (including kIntraRackPath markers) must survive serialization.
  bool checked = false;
  for (const Pinglist& list : lists) {
    const bool has_intra_rack =
        std::any_of(list.entries.begin(), list.entries.end(), [](const PinglistEntry& e) {
          return e.path_id == PinglistEntry::kIntraRackPath;
        });
    if (!has_intra_rack || list.version != 2) {
      continue;
    }
    const Pinglist parsed = Pinglist::FromXml(list.ToXml());
    EXPECT_EQ(parsed.version, list.version);
    EXPECT_EQ(parsed.pinger, list.pinger);
    ASSERT_EQ(parsed.entries.size(), list.entries.size());
    for (size_t i = 0; i < list.entries.size(); ++i) {
      EXPECT_EQ(parsed.entries[i].path_id, list.entries[i].path_id);
      EXPECT_EQ(parsed.entries[i].target_server, list.entries[i].target_server);
      EXPECT_EQ(parsed.entries[i].route, list.entries[i].route);
    }
    checked = true;
    break;
  }
  EXPECT_TRUE(checked) << "no updated pinglist with intra-rack entries found";
}

TEST(DetectorSystemChurn, ApplyTopologyDeltaRoutesAroundDeadLink) {
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  DetectorSystemOptions options;
  options.pmc.alpha = 1;
  options.pmc.beta = 1;
  options.controller.packets_per_second = 50;  // plenty of samples in one window
  DetectorSystem system(routing, options);

  const LinkId victim = ft.AggCoreLink(0, 0, 0);
  const auto result = system.ApplyTopologyDelta(TopologyDelta::LinkDown(victim));
  EXPECT_EQ(result.links_gone_dead, 1u);
  EXPECT_TRUE(result.repair.alpha_satisfied);
  EXPECT_GT(result.pinglists_touched, 0u);
  EXPECT_GT(result.entries_removed, 0u);

  for (const Pinglist& list : system.pinglists()) {
    for (const PinglistEntry& entry : list.entries) {
      EXPECT_EQ(std::count(entry.route.begin(), entry.route.end(), victim), 0)
          << "pinglist still routes over the dead link";
    }
  }

  // The system still detects and localizes an unrelated failure end to end.
  FailureScenario scenario;
  LinkFailure f;
  f.link = ft.AggCoreLink(1, 1, 1);
  f.type = FailureType::kFullLoss;
  scenario.failures.push_back(f);
  Rng rng(9);
  const auto window = system.RunWindowStreaming(scenario, {}, rng).window;
  ASSERT_GE(window.localization.links.size(), 1u);
  EXPECT_EQ(window.localization.links[0].link, f.link);
}

TEST(DetectorSystemChurn, DeltaThenRecoveryRestoresPinglists) {
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  DetectorSystemOptions options;
  options.pmc.alpha = 1;
  options.pmc.beta = 1;
  DetectorSystem system(routing, options);
  const size_t baseline_entries = [&] {
    size_t n = 0;
    for (const Pinglist& list : system.pinglists()) {
      n += list.entries.size();
    }
    return n;
  }();

  const LinkId victim = ft.EdgeAggLink(2, 0, 1);
  system.ApplyTopologyDelta(TopologyDelta::LinkDown(victim));
  const auto recovery = system.ApplyTopologyDelta(TopologyDelta::LinkUp(victim));
  EXPECT_EQ(recovery.links_back_live, 1u);
  EXPECT_TRUE(recovery.repair.alpha_satisfied);
  size_t entries = 0;
  for (const Pinglist& list : system.pinglists()) {
    entries += list.entries.size();
  }
  // Coverage is restored with a comparable probing budget (selection may differ slightly).
  EXPECT_GE(entries * 10, baseline_entries * 9);
}

TEST(DetectorSystemChurn, ServerChurnMovesEntriesOffDownedPinger) {
  // FatTree(6) has 3 servers per rack, so the downed pinger leaves two healthy rack-mates
  // that can probe each other.
  const FatTree ft(6);
  const FatTreeRouting routing(ft);
  DetectorSystemOptions options;
  options.pmc.alpha = 1;
  options.pmc.beta = 1;
  DetectorSystem system(routing, options);
  const NodeId down = system.pinglists().front().pinger;

  const auto result = system.ApplyTopologyDelta(TopologyDelta::NodeDown(down));
  EXPECT_GT(result.entries_removed, 0u);
  EXPECT_FALSE(system.watchdog().IsHealthy(down));
  // Redispatch moves entries, but the paths keep their matrix slots: buffered observations
  // for them stay valid, so nothing is marked stale.
  EXPECT_TRUE(result.slots_vacated.empty());
  std::map<NodeId, int> intra_rack_targeted;
  for (const Pinglist& list : system.pinglists()) {
    if (list.pinger == down) {
      // Its matrix entries moved and its intra-rack entries went: no shard opens for it.
      EXPECT_TRUE(list.entries.empty());
      continue;
    }
    for (const PinglistEntry& entry : list.entries) {
      // No entry of any kind — matrix or intra-rack — may still target the downed server
      // once the delta has dispatched: matrix entries are redispatched, intra-rack entries
      // are removed outright.
      EXPECT_NE(entry.target_server, down);
      if (entry.path_id == PinglistEntry::kIntraRackPath) {
        ++intra_rack_targeted[entry.target_server];
      }
    }
  }
  // The intra-rack entries the downed pinger held are placed again: each healthy server of
  // its rack is probed by exactly one rack-mate.
  const Topology& topo = system.topology();
  const NodeId tor = topo.NeighborsOf(down).front().node;
  size_t healthy = 0;
  for (const Neighbor& nb : topo.NeighborsOf(tor)) {
    if (topo.IsServer(nb.node) && nb.node != down) {
      ++healthy;
      EXPECT_EQ(intra_rack_targeted[nb.node], 1) << "server " << nb.node;
    }
  }
  EXPECT_EQ(healthy, 2u);
}

TEST(DetectorSystemChurn, StaleIntraRackEntriesRemovedAndRestored) {
  // ROADMAP open item 1, second half: a downed server's intra-rack entries must leave the
  // standing pinglists with the delta that downed it — not age out at the next full rebuild —
  // and return when it recovers. FatTree(6) has 3 servers per rack with 2 pingers, so
  // non-pinger intra-rack targets exist.
  const FatTree ft(6);
  const FatTreeRouting routing(ft);
  DetectorSystemOptions options;
  options.pmc.alpha = 1;
  options.pmc.beta = 1;
  DetectorSystem system(routing, options);

  // Pick a server that is an intra-rack target but not a pinger, so the delta's only work is
  // the intra-rack withdrawal (no matrix redispatch noise).
  NodeId victim = kInvalidNode;
  NodeId victim_pinger = kInvalidNode;
  for (const Pinglist& list : system.pinglists()) {
    for (const PinglistEntry& entry : list.entries) {
      if (entry.path_id != PinglistEntry::kIntraRackPath) {
        continue;
      }
      bool is_pinger = false;
      for (const Pinglist& other : system.pinglists()) {
        is_pinger |= other.pinger == entry.target_server && !other.entries.empty();
      }
      if (!is_pinger) {
        victim = entry.target_server;
        victim_pinger = list.pinger;
      }
    }
  }
  ASSERT_NE(victim, kInvalidNode);
  auto version_of = [&](NodeId pinger) {
    for (const Pinglist& list : system.pinglists()) {
      if (list.pinger == pinger) {
        return list.version;
      }
    }
    return 0;
  };

  // The delta withdraws the entry from the victim's pinger, whose list carries a new version.
  const int version_before = version_of(victim_pinger);
  const auto down = system.ApplyTopologyDelta(TopologyDelta::NodeDown(victim));
  EXPECT_EQ(down.entries_removed, 1u);
  EXPECT_EQ(down.pinglists_touched, 1u);
  EXPECT_GT(version_of(victim_pinger), version_before);
  // The gate: no standing pinglist entry targets the downed server once the delta dispatched.
  for (const Pinglist& list : system.pinglists()) {
    for (const PinglistEntry& entry : list.entries) {
      EXPECT_NE(entry.target_server, victim);
    }
  }

  // Recovery restores the entry (same deterministic pinger choice), exactly once.
  const int version_down = version_of(victim_pinger);
  const auto up = system.ApplyTopologyDelta(TopologyDelta::NodeUp(victim));
  EXPECT_EQ(up.entries_added, 1u);
  EXPECT_GT(version_of(victim_pinger), version_down);
  int standing = 0;
  for (const Pinglist& list : system.pinglists()) {
    for (const PinglistEntry& entry : list.entries) {
      if (entry.path_id == PinglistEntry::kIntraRackPath && entry.target_server == victim) {
        ++standing;
        EXPECT_EQ(list.pinger, victim_pinger);
        ASSERT_EQ(entry.route.size(), 2u);
      }
    }
  }
  EXPECT_EQ(standing, 1);

  // A repeated down delta has nothing left to withdraw; a repeated up adds no duplicate.
  system.ApplyTopologyDelta(TopologyDelta::NodeDown(victim));
  const auto re_down = system.ApplyTopologyDelta(TopologyDelta::NodeDown(victim));
  EXPECT_EQ(re_down.entries_removed, 0u);
  system.ApplyTopologyDelta(TopologyDelta::NodeUp(victim));
  const auto re_up = system.ApplyTopologyDelta(TopologyDelta::NodeUp(victim));
  EXPECT_EQ(re_up.entries_added, 0u);
}

TEST(DetectorSystemChurn, BcubeServerChurnAddsNoIntraRackEntry) {
  // BCube has no ToR racks, so BuildPinglists places no intra-rack entry, and neither may a
  // server's recovery.
  const Bcube bc(4, 1);
  const BcubeRouting routing(bc);
  DetectorSystemOptions options;
  options.pmc.alpha = 1;
  options.pmc.beta = 1;
  DetectorSystem system(routing, options);
  const NodeId server = system.pinglists().front().pinger;
  system.ApplyTopologyDelta(TopologyDelta::NodeDown(server));
  system.ApplyTopologyDelta(TopologyDelta::NodeUp(server));
  for (const Pinglist& list : system.pinglists()) {
    for (const PinglistEntry& entry : list.entries) {
      EXPECT_NE(entry.path_id, PinglistEntry::kIntraRackPath) << "pinger " << list.pinger;
    }
  }
}

TEST(DetectorSystemChurn, DeltaConfirmsOutOfBandWatchdogFlag) {
  // The watchdog can flag a server before any topology delta names it (health telemetry —
  // the flow the pinger-side probe-time skip exists for). The delta that later confirms the
  // failure must still do the full dispatch: redispatch matrix entries off the dead endpoint
  // and withdraw the intra-rack entries towards it, exactly as if the flag were fresh.
  const FatTree ft(6);
  const FatTreeRouting routing(ft);
  DetectorSystemOptions options;
  options.pmc.alpha = 1;
  options.pmc.beta = 1;
  DetectorSystem system(routing, options);

  NodeId victim = kInvalidNode;
  for (const Pinglist& list : system.pinglists()) {
    for (const PinglistEntry& entry : list.entries) {
      if (entry.path_id == PinglistEntry::kIntraRackPath) {
        victim = entry.target_server;
      }
    }
  }
  ASSERT_NE(victim, kInvalidNode);

  system.watchdog().MarkDown(victim);  // out-of-band: no delta dispatched yet
  size_t standing_before = 0;
  for (const Pinglist& list : system.pinglists()) {
    for (const PinglistEntry& entry : list.entries) {
      standing_before += entry.target_server == victim ? 1 : 0;
    }
  }
  EXPECT_GT(standing_before, 0u);  // the flag alone moves nothing

  const auto result = system.ApplyTopologyDelta(TopologyDelta::NodeDown(victim));
  EXPECT_GT(result.entries_removed, 0u);
  for (const Pinglist& list : system.pinglists()) {
    for (const PinglistEntry& entry : list.entries) {
      EXPECT_NE(entry.target_server, victim);
    }
  }
}

TEST(DetectorSystemChurn, RecomputeCycleRespectsOverlay) {
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  DetectorSystemOptions options;
  options.pmc.alpha = 1;
  options.pmc.beta = 1;
  DetectorSystem system(routing, options);

  const LinkId victim = ft.AggCoreLink(1, 0, 0);
  system.ApplyTopologyDelta(TopologyDelta::LinkDown(victim));
  system.RecomputeCycle();
  EXPECT_TRUE(system.pmc_stats().alpha_satisfied);  // rebuilt over live links only
  const ProbeMatrix& matrix = system.probe_matrix();
  for (size_t p = 0; p < matrix.NumPaths(); ++p) {
    const auto links = matrix.paths().Links(static_cast<PathId>(p));
    EXPECT_EQ(std::count(links.begin(), links.end(), victim), 0);
  }
}

TEST(DetectorSystemChurn, RecomputeCycleKeepsVersionsMonotonic) {
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  DetectorSystemOptions options;
  options.pmc.alpha = 1;
  options.pmc.beta = 1;
  DetectorSystem system(routing, options);

  // Churn bumps some lists past 1; the rebuild must move every pinger strictly forward.
  system.ApplyTopologyDelta(TopologyDelta::LinkDown(ft.AggCoreLink(0, 0, 0)));
  std::map<NodeId, int> before;
  for (const Pinglist& list : system.pinglists()) {
    before[list.pinger] = list.version;
  }
  system.RecomputeCycle();
  for (const Pinglist& list : system.pinglists()) {
    const auto it = before.find(list.pinger);
    if (it != before.end()) {
      EXPECT_GT(list.version, it->second) << "pinger " << list.pinger;
    }
  }
}

TEST(DetectorSystemChurn, ReturningPingerDoesNotResetVersions) {
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  DetectorSystemOptions options;
  options.pmc.alpha = 1;
  options.pmc.beta = 1;
  DetectorSystem system(routing, options);
  const NodeId pinger = system.pinglists().front().pinger;

  // Raise the pinger's version with churn, then make it vanish for a cycle.
  system.ApplyTopologyDelta(TopologyDelta::LinkDown(ft.AggCoreLink(0, 0, 0)));
  system.ApplyTopologyDelta(TopologyDelta::LinkUp(ft.AggCoreLink(0, 0, 0)));
  int raised = 0;
  for (const Pinglist& list : system.pinglists()) {
    if (list.pinger == pinger) {
      raised = list.version;
    }
  }
  system.watchdog().MarkDown(pinger);
  system.RecomputeCycle();  // pinger absent from this generation
  for (const Pinglist& list : system.pinglists()) {
    EXPECT_NE(list.pinger, pinger);
  }

  // On return, its version must land above the old high-water mark, not restart at 1.
  system.watchdog().MarkUp(pinger);
  system.RecomputeCycle();
  bool found = false;
  for (const Pinglist& list : system.pinglists()) {
    if (list.pinger == pinger) {
      found = true;
      EXPECT_GT(list.version, raised);
    }
  }
  EXPECT_TRUE(found);
}

TEST(DetectorSystemChurn, PingerRegainingListThroughDeltaOutranksItsVersions) {
  // A pinger absent from a RecomputeCycle regains a list through a delta: its rack-mate goes
  // down, and the rack-mate's paths are dispatched to it. The new list must carry a version
  // above every version the pinger held, though no cycle was recomputed since its absence.
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  DetectorSystemOptions options;
  options.pmc.alpha = 1;
  options.pmc.beta = 1;
  DetectorSystem system(routing, options);
  const Topology& topo = system.topology();
  const NodeId pinger = system.pinglists().front().pinger;
  const NodeId tor = topo.NeighborsOf(pinger).front().node;
  NodeId mate = kInvalidNode;
  for (const Neighbor& nb : topo.NeighborsOf(tor)) {
    if (topo.IsServer(nb.node) && nb.node != pinger) {
      mate = nb.node;
    }
  }
  ASSERT_NE(mate, kInvalidNode);
  int held = 0;
  auto list_of = [&](NodeId node) -> const Pinglist* {
    for (const Pinglist& list : system.pinglists()) {
      if (list.pinger == node) {
        return &list;
      }
    }
    return nullptr;
  };
  auto note_held = [&] {
    if (const Pinglist* list = list_of(pinger)) {
      held = std::max(held, list->version);
    }
  };

  note_held();
  system.ApplyTopologyDelta(TopologyDelta::LinkDown(ft.AggCoreLink(0, 0, 0)));
  note_held();
  system.ApplyTopologyDelta(TopologyDelta::LinkUp(ft.AggCoreLink(0, 0, 0)));
  note_held();
  system.watchdog().MarkDown(pinger);
  system.RecomputeCycle();
  EXPECT_EQ(list_of(pinger), nullptr);  // absent from this generation
  system.watchdog().MarkUp(pinger);

  const auto result = system.ApplyTopologyDelta(TopologyDelta::NodeDown(mate));
  EXPECT_GT(result.entries_added, 0u);
  const Pinglist* regained = list_of(pinger);
  ASSERT_NE(regained, nullptr);
  EXPECT_FALSE(regained->entries.empty());
  EXPECT_GT(regained->version, held);
}

TEST(DetectorSystemChurn, FixedMatrixRecomputeCycleRespectsOverlay) {
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  PmcOptions pmc;
  pmc.alpha = 1;
  pmc.beta = 1;
  ProbeMatrix matrix = BuildProbeMatrix(routing, PathEnumMode::kFull, pmc).matrix;
  DetectorSystem system(ft.topology(), std::move(matrix), DetectorSystemOptions{});

  const LinkId victim = ft.AggCoreLink(0, 1, 0);
  const auto down = system.ApplyTopologyDelta(TopologyDelta::LinkDown(victim));
  // A mid-outage rebuild must not resurrect entries over the dead link...
  system.RecomputeCycle();
  for (const Pinglist& list : system.pinglists()) {
    for (const PinglistEntry& entry : list.entries) {
      EXPECT_EQ(std::count(entry.route.begin(), entry.route.end(), victim), 0);
    }
  }
  // ...and the later link-up must restore each withdrawn entry exactly once (no duplicates).
  const auto up = system.ApplyTopologyDelta(TopologyDelta::LinkUp(victim));
  EXPECT_EQ(up.entries_added, down.entries_removed);
  std::map<std::pair<NodeId, PathId>, int> entry_count;
  for (const Pinglist& list : system.pinglists()) {
    for (const PinglistEntry& entry : list.entries) {
      if (entry.path_id >= 0) {
        const int count = ++entry_count[std::make_pair(list.pinger, entry.path_id)];
        EXPECT_EQ(count, 1) << "duplicate entry for path " << entry.path_id << " on pinger "
                            << list.pinger;
      }
    }
  }
}

TEST(DetectorSystemChurn, WindowAppliesMidWindowChurnEvents) {
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  DetectorSystemOptions options;
  options.pmc.alpha = 2;
  options.pmc.beta = 1;
  options.controller.packets_per_second = 50;
  DetectorSystem system(routing, options);

  const LinkId flapper = ft.AggCoreLink(3, 1, 1);
  std::vector<ChurnEvent> churn;
  churn.push_back(ChurnEvent{10.0, TopologyDelta::LinkDown(flapper)});
  churn.push_back(ChurnEvent{20.0, TopologyDelta::LinkUp(flapper)});
  churn.push_back(ChurnEvent{45.0, TopologyDelta::LinkDown(flapper)});  // beyond the window

  FailureScenario healthy;
  Rng rng(11);
  const auto window = system.RunWindowStreaming(healthy, churn, rng).window;
  EXPECT_EQ(window.churn_events_applied, 2u);
  EXPECT_GT(window.probes_sent, 0);
  EXPECT_EQ(system.overlay().NumDeadLinks(), 0u);  // the flap recovered inside the window
  EXPECT_TRUE(system.incremental()->AlphaSatisfied());
}

TEST(DetectorSystemChurn, MultiWindowTraceViaWindowSlice) {
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  DetectorSystemOptions options;
  options.pmc.alpha = 1;
  options.pmc.beta = 1;
  DetectorSystem system(routing, options);

  ChurnOptions churn_options;
  churn_options.link_events_per_minute = 6.0;
  churn_options.node_events_per_minute = 0.0;
  churn_options.mean_outage_seconds = 20.0;
  const ChurnGenerator gen(ft.topology(), churn_options);
  Rng rng(13);
  const auto trace = gen.Sample(120.0, rng);
  ASSERT_FALSE(trace.empty());

  // Consecutive 30 s windows consume the whole trace (including recoveries landing after the
  // sampling horizon); every event lands exactly once.
  const FailureScenario healthy;
  const int windows = static_cast<int>(trace.back().time_seconds / 30.0) + 1;
  size_t applied = 0;
  for (int w = 0; w < windows; ++w) {
    const auto slice = WindowSlice(trace, w * 30.0, (w + 1) * 30.0);
    const auto window = system.RunWindowStreaming(healthy, slice, rng).window;
    EXPECT_EQ(window.churn_events_applied, slice.size());
    applied += window.churn_events_applied;
  }
  EXPECT_EQ(applied, trace.size());
  // The trace is self-restoring, so after all slices the overlay is clean and repaired.
  EXPECT_EQ(system.overlay().NumDeadLinks(), 0u);
  EXPECT_TRUE(system.incremental()->AlphaSatisfied());
}

TEST(DetectorSystemChurn, FixedMatrixServerChurnKeepsAlphaSatisfied) {
  // A downed server kills its (unmonitored) rack link; that is no coverage hole for a matrix
  // over inter-switch links, so alpha_satisfied must stay true in fixed-matrix mode.
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  PmcOptions pmc;
  pmc.alpha = 1;
  pmc.beta = 1;
  ProbeMatrix matrix = BuildProbeMatrix(routing, PathEnumMode::kFull, pmc).matrix;
  DetectorSystem system(ft.topology(), std::move(matrix), DetectorSystemOptions{});
  const NodeId down = system.pinglists().front().pinger;
  const auto result = system.ApplyTopologyDelta(TopologyDelta::NodeDown(down));
  EXPECT_GT(result.links_gone_dead, 0u);  // the server's rack link died
  EXPECT_TRUE(result.repair.alpha_satisfied);
}

TEST(DetectorSystemChurn, FixedMatrixServerAndLinkDeltaKeepsDeadPathsWithdrawn) {
  // One delta downs a pinger and a link one of its matrix entries crosses. The pinger's other
  // entries move to healthy servers, but the paths over the dead link are not dispatched
  // again: the delta already withdraws them until the link returns.
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  PmcOptions pmc;
  pmc.alpha = 1;
  pmc.beta = 1;
  ProbeMatrix matrix = BuildProbeMatrix(routing, PathEnumMode::kFull, pmc).matrix;
  DetectorSystem system(ft.topology(), std::move(matrix), DetectorSystemOptions{});
  NodeId pinger = kInvalidNode;
  LinkId dead = kInvalidLink;
  for (const Pinglist& list : system.pinglists()) {
    for (const PinglistEntry& entry : list.entries) {
      if (entry.path_id >= 0 && pinger == kInvalidNode) {
        pinger = list.pinger;
        const auto links = system.probe_matrix().paths().Links(entry.path_id);
        dead = links[links.size() / 2];
      }
    }
  }
  ASSERT_NE(pinger, kInvalidNode);
  TopologyDelta delta = TopologyDelta::NodeDown(pinger);
  delta.links.push_back(LinkChurn{dead, ChurnAction::kDown});
  const auto down = system.ApplyTopologyDelta(delta);
  EXPECT_GT(down.entries_added, 0u);
  for (const Pinglist& list : system.pinglists()) {
    for (const PinglistEntry& entry : list.entries) {
      EXPECT_EQ(std::count(entry.route.begin(), entry.route.end(), dead), 0)
          << "path " << entry.path_id << " dispatched over the dead link";
      if (entry.path_id >= 0) {
        EXPECT_NE(list.pinger, pinger);
        EXPECT_NE(entry.target_server, pinger);
      }
    }
  }
}

TEST(DetectorSystemChurn, FixedMatrixModeDegradesGracefully) {
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  PmcOptions pmc;
  pmc.alpha = 1;
  pmc.beta = 1;
  ProbeMatrix matrix = BuildProbeMatrix(routing, PathEnumMode::kFull, pmc).matrix;
  DetectorSystemOptions options;
  DetectorSystem system(ft.topology(), std::move(matrix), options);
  EXPECT_EQ(system.incremental(), nullptr);

  const LinkId victim = ft.AggCoreLink(0, 1, 0);
  const auto down = system.ApplyTopologyDelta(TopologyDelta::LinkDown(victim));
  EXPECT_GT(down.entries_removed, 0u);
  EXPECT_FALSE(down.repair.alpha_satisfied);  // no repair without a candidate set
  for (const Pinglist& list : system.pinglists()) {
    for (const PinglistEntry& entry : list.entries) {
      EXPECT_EQ(std::count(entry.route.begin(), entry.route.end(), victim), 0);
    }
  }
  const auto up = system.ApplyTopologyDelta(TopologyDelta::LinkUp(victim));
  EXPECT_EQ(up.entries_added, down.entries_removed);  // withdrawn entries restored
}

// Everything a server-churn trace shows, folded into one value with doubles by their bits:
// every pinglist (pinger, entries with their routes), every ChurnApplyResult the trace applies
// between windows, every window result and timeline, and every sealed window. Versions are
// left out: VersionWatch checks their contract instead.
class ServerChurnHash {
 public:
  uint64_t value() const { return h_; }

  void Mix(uint64_t value) { h_ = HashCombine(h_, value); }
  void MixDouble(double value) { Mix(std::bit_cast<uint64_t>(value)); }
  void MixSigned(int64_t value) { Mix(static_cast<uint64_t>(value)); }

  void MixEntry(const PinglistEntry& entry) {
    MixSigned(entry.path_id);
    MixSigned(entry.target_server);
    Mix(entry.route.size());
    for (const LinkId link : entry.route) {
      MixSigned(link);
    }
  }

  void MixPinglists(const std::vector<Pinglist>& lists) {
    Mix(lists.size());
    for (const Pinglist& list : lists) {
      MixSigned(list.pinger);
      Mix(list.entries.size());
      for (const PinglistEntry& entry : list.entries) {
        MixEntry(entry);
      }
    }
  }

  void MixApplied(const DetectorSystem::ChurnApplyResult& applied) {
    const ChurnRepairStats& stats = applied.repair;
    Mix(stats.dropped_paths);
    Mix(stats.added_paths);
    Mix(stats.repaired_links);
    Mix(stats.pool_candidates);
    Mix(stats.score_evaluations);
    MixSigned(stats.touched_components);
    MixSigned(stats.uncoverable_live_links);
    Mix(stats.alpha_satisfied ? 1 : 0);
    Mix(stats.fully_resolved ? 1 : 0);
    Mix(applied.links_gone_dead);
    Mix(applied.links_back_live);
    Mix(applied.paths_removed);
    Mix(applied.paths_added);
    Mix(applied.pinglists_touched);
    Mix(applied.entries_removed);
    Mix(applied.entries_added);
    Mix(applied.overlay_version);
    Mix(applied.slots_vacated.size());
    for (const PathId slot : applied.slots_vacated) {
      MixSigned(slot);
    }
  }

  void MixDiagnosis(const std::vector<SuspectLink>& suspects,
                    const std::vector<ServerLinkAlarm>& alarms,
                    const std::vector<LinkAnomaly>& anomalies) {
    Mix(suspects.size());
    for (const SuspectLink& suspect : suspects) {
      MixSigned(suspect.link);
      MixDouble(suspect.estimated_loss_rate);
      MixDouble(suspect.hit_ratio);
      MixSigned(suspect.explained_losses);
    }
    Mix(alarms.size());
    for (const ServerLinkAlarm& alarm : alarms) {
      MixSigned(alarm.pinger);
      MixSigned(alarm.target);
      MixDouble(alarm.loss_ratio);
    }
    Mix(anomalies.size());
    for (const LinkAnomaly& anomaly : anomalies) {
      MixSigned(anomaly.link);
      Mix(anomaly.signal);
      MixDouble(anomaly.score);
      MixSigned(anomaly.sustained);
    }
  }

  void MixWindow(const DetectorSystem::StreamingWindowResult& result) {
    const DetectorSystem::WindowResult& window = result.window;
    MixDiagnosis(window.localization.links, window.server_link_alarms, window.anomalies);
    MixSigned(window.probes_sent);
    MixSigned(window.bytes_sent);
    MixDouble(window.detection_latency_seconds);
    Mix(window.churn_events_applied);
    Mix(result.timeline.size());
    for (const DetectorSystem::SegmentDiagnosis& d : result.timeline) {
      MixSigned(d.segment);
      MixDouble(d.time_seconds);
      MixDiagnosis(d.localization.links, d.server_link_alarms, d.anomalies);
    }
  }

  void MixSealed(const SealedWindow& sealed) {
    Mix(sealed.window_index);
    Mix(sealed.num_slots);
    Mix(sealed.churn_events);
    Mix(sealed.dead_links);
    MixSigned(sealed.probes_sent);
    MixSigned(sealed.bytes_sent);
    Mix(sealed.boundaries.size());
    for (const SealedBoundary& boundary : sealed.boundaries) {
      MixSigned(boundary.segment);
      MixDouble(boundary.time_seconds);
      Mix(boundary.deltas.size());
      for (const SealedDelta& delta : boundary.deltas) {
        MixSigned(delta.slot);
        MixSigned(delta.sent);
        MixSigned(delta.lost);
      }
      MixDiagnosis(boundary.suspects, boundary.alarms, boundary.anomalies);
    }
  }

 private:
  uint64_t h_ = 0;
};

// The pinglist version contract along a trace: a pinger's version never falls, across deltas,
// rebuilds and absences from the pinglist set, and it rises whenever its entries change.
class VersionWatch {
 public:
  void Observe(const std::vector<Pinglist>& lists) {
    for (const Pinglist& list : lists) {
      ServerChurnHash entries;
      for (const PinglistEntry& entry : list.entries) {
        entries.MixEntry(entry);
      }
      const Seen now{list.version, entries.value()};
      const auto [it, first] = last_.try_emplace(list.pinger, now);
      if (first) {
        continue;
      }
      EXPECT_GE(now.version, it->second.version) << "pinger " << list.pinger;
      if (now.entries != it->second.entries) {
        EXPECT_GT(now.version, it->second.version) << "pinger " << list.pinger << " changed";
      }
      it->second = now;
    }
  }

 private:
  struct Seen {
    int version;
    uint64_t entries;
  };
  std::map<NodeId, Seen> last_;
};

class SealedWindowList : public WindowSink {
 public:
  void OnWindowSealed(const SealedWindow& window) override { windows.push_back(window); }
  std::vector<SealedWindow> windows;
};

struct ServerChurnConfig {
  bool structured = false;  // fixed structured matrix instead of PMC
  bool sliding = false;     // sliding mid-window view instead of cumulative
  bool anomaly = false;
  bool report = false;      // report plane: 2 collectors
  size_t threads = 1;       // probe threads
};

// One window's mid-window server victims, picked from the standing pinglists among healthy
// servers: a pinger holding matrix entries, the responder of its first matrix entry, the
// responder of its first entry towards another server (or, failing that, another pinger),
// and a server only intra-rack entries target.
struct ServerVictims {
  NodeId pinger = kInvalidNode;
  NodeId responder = kInvalidNode;
  NodeId crosser = kInvalidNode;
  NodeId intra_only = kInvalidNode;
};

ServerVictims PickServerVictims(const DetectorSystem& system, const Watchdog& watchdog,
                                int window) {
  std::vector<const Pinglist*> pingers;
  std::set<NodeId> matrix_nodes;
  std::set<NodeId> intra_targets;
  for (const Pinglist& list : system.pinglists()) {
    bool holds_matrix = false;
    for (const PinglistEntry& entry : list.entries) {
      if (entry.path_id >= 0) {
        holds_matrix = true;
        matrix_nodes.insert(list.pinger);
        matrix_nodes.insert(entry.target_server);
      } else {
        intra_targets.insert(entry.target_server);
      }
    }
    if (holds_matrix && watchdog.IsHealthy(list.pinger)) {
      pingers.push_back(&list);
    }
  }
  ServerVictims v;
  EXPECT_FALSE(pingers.empty());
  if (pingers.empty()) {
    return v;
  }
  const size_t pick = static_cast<size_t>(window) * 5 % pingers.size();
  const Pinglist& list = *pingers[pick];
  v.pinger = list.pinger;
  for (const PinglistEntry& entry : list.entries) {
    if (entry.path_id < 0 || !watchdog.IsHealthy(entry.target_server)) {
      continue;
    }
    if (v.responder == kInvalidNode) {
      v.responder = entry.target_server;
    } else if (entry.target_server != v.responder) {
      v.crosser = entry.target_server;
      break;
    }
  }
  for (size_t i = 1; v.crosser == kInvalidNode && i < pingers.size(); ++i) {
    const NodeId other = pingers[(pick + i) % pingers.size()]->pinger;
    if (other != v.responder) {
      v.crosser = other;
    }
  }
  std::vector<NodeId> intra_only;
  for (const NodeId target : intra_targets) {
    if (matrix_nodes.count(target) == 0 && watchdog.IsHealthy(target)) {
      intra_only.push_back(target);
    }
  }
  EXPECT_FALSE(intra_only.empty());
  if (!intra_only.empty()) {
    v.intra_only = intra_only[static_cast<size_t>(window) * 3 % intra_only.size()];
  }
  EXPECT_NE(v.responder, kInvalidNode);
  EXPECT_NE(v.crosser, kInvalidNode);
  return v;
}

// Fat-tree(8) (4 servers per rack, 2 of them pingers), alpha = 2, 6 segments diagnosed at
// every boundary, one full-loss agg-core link, 8 windows. In every window a pinger goes down
// and one of its responders follows while it is down; the pinger comes back while the
// responder is still down, and inside the same segment another server goes down (crossing
// flips); an intra-rack-only target goes down and up too. Every third window also takes an
// agg switch down and back. Between windows one delta downs a server and drains another,
// and the next restores both. Once, a pinger is flagged out of band for a whole window,
// after which the trace recomputes the cycle, lifts the flag and sends the matching NodeUp.
uint64_t ServerChurnTraceHash(const ServerChurnConfig& config) {
  const FatTree ft(8);
  const FatTreeRouting routing(ft);
  DetectorSystemOptions options;
  options.pmc.alpha = 2;
  options.pmc.beta = 1;
  options.controller.packets_per_second = 50;
  options.segments_per_window = 6;
  options.diagnose_every_segments = 1;
  options.streaming_view =
      config.sliding ? StreamingViewMode::kSliding : StreamingViewMode::kCumulative;
  options.sliding_window_segments = 3;
  options.anomaly = config.anomaly;
  options.report_plane = config.report;
  options.report_collectors = config.report ? 2 : 1;
  options.probe_threads = config.threads;
  std::unique_ptr<DetectorSystem> system =
      config.structured
          ? std::make_unique<DetectorSystem>(ft.topology(),
                                             StructuredFatTreeProbeMatrix(ft, 2, 1), options)
          : std::make_unique<DetectorSystem>(routing, options);
  SealedWindowList sealed;
  system->set_history_sink(&sealed);

  ServerChurnHash h;
  VersionWatch versions;
  auto mix_lists = [&] {
    h.MixPinglists(system->pinglists());
    versions.Observe(system->pinglists());
  };
  mix_lists();
  size_t entries_removed = 0;
  size_t entries_added = 0;
  auto apply = [&](const TopologyDelta& delta) {
    const DetectorSystem::ChurnApplyResult applied = system->ApplyTopologyDelta(delta);
    entries_removed += applied.entries_removed;
    entries_added += applied.entries_added;
    h.MixApplied(applied);
    mix_lists();
  };
  auto node_delta = [](NodeId a, ChurnAction a_action, NodeId b, ChurnAction b_action) {
    TopologyDelta delta;
    delta.nodes.push_back(NodeChurn{a, a_action});
    delta.nodes.push_back(NodeChurn{b, b_action});
    return delta;
  };

  FailureScenario scenario;
  LinkFailure failure;
  failure.link = ft.AggCoreLink(6, 1, 2);
  failure.type = FailureType::kFullLoss;
  scenario.failures.push_back(failure);

  const NodeId out_of_band = ft.Server(4, 2, 0);
  Rng rng(33);
  for (int w = 0; w < 8; ++w) {
    if (w == 5) {
      system->watchdog().MarkDown(out_of_band);
    }
    const ServerVictims v = PickServerVictims(*system, system->watchdog(), w);
    std::vector<ChurnEvent> churn = {
        {3.5, TopologyDelta::NodeDown(v.pinger)},
        {8.0, TopologyDelta::NodeDown(v.intra_only)},
        {11.0, TopologyDelta::NodeDown(v.responder)},  // while its pinger is down
        {16.0, TopologyDelta::NodeUp(v.pinger)},       // while its responder is down...
        {18.0, TopologyDelta::NodeDown(v.crosser)},    // ...and, in the same segment, this
        {21.0, TopologyDelta::NodeUp(v.responder)},
        {22.5, TopologyDelta::NodeUp(v.intra_only)},
        {27.0, TopologyDelta::NodeUp(v.crosser)},
    };
    if (w % 3 == 0) {
      const NodeId agg = ft.Agg((w + 1) % 8, 1);
      churn.push_back({9.5, TopologyDelta::NodeDown(agg)});
      churn.push_back({24.0, TopologyDelta::NodeUp(agg)});
      std::stable_sort(churn.begin(), churn.end(), [](const ChurnEvent& a, const ChurnEvent& b) {
        return a.time_seconds < b.time_seconds;
      });
    }
    const auto result = system->RunWindowStreaming(scenario, churn, rng);
    EXPECT_EQ(result.window.churn_events_applied, churn.size());
    h.MixWindow(result);
    mix_lists();

    const NodeId downed = ft.Server((w / 2 * 2 + 2) % 8, 3, 0);
    const NodeId drained = ft.Server((w / 2 * 2 + 6) % 8, 1, 2);
    if (w % 2 == 0) {
      apply(node_delta(downed, ChurnAction::kDown, drained, ChurnAction::kDrain));
    } else {
      apply(node_delta(downed, ChurnAction::kUp, drained, ChurnAction::kUndrain));
    }
    if (w == 5) {
      system->RecomputeCycle();
      mix_lists();
      system->watchdog().MarkUp(out_of_band);
      apply(TopologyDelta::NodeUp(out_of_band));
    }
  }
  EXPECT_GT(entries_removed, 0u);
  EXPECT_GT(entries_added, 0u);
  h.Mix(sealed.windows.size());
  for (const SealedWindow& window : sealed.windows) {
    h.MixSealed(window);
  }
  return h.value();
}

TEST(DetectorSystemChurn, ServerChurnMatchesPinnedTrace) {
  // Server churn pinned across commits: a change that claims to move no pinglist entry,
  // count, running total, suspect or sealed window must hash to the literal captured before
  // it, on PMC and structured matrices, in both mid-window views, with the anomaly plane on
  // and off. Direct mode at 2 and 8 probe threads, where the calling thread folds finished
  // shards while the workers probe, and the report plane at 2 and 8, where it pumps the
  // collectors too, must hash equal to direct mode at 1 thread in every configuration.
  constexpr uint64_t kPinned = 0xe3454f9b837836edULL;
  uint64_t combined = 0;
  std::ostringstream hashes;
  for (const bool structured : {false, true}) {
    for (const bool sliding : {false, true}) {
      for (const bool anomaly : {false, true}) {
        const std::string name = std::string(structured ? "structured" : "pmc") +
                                 (sliding ? "/sliding" : "/cumulative") +
                                 (anomaly ? "/anomaly" : "/loss");
        const uint64_t direct = ServerChurnTraceHash({structured, sliding, anomaly, false, 1});
        for (const size_t threads : {2u, 8u}) {
          EXPECT_EQ(ServerChurnTraceHash({structured, sliding, anomaly, false, threads}), direct)
              << name << ": direct mode at " << threads << " threads differs from 1 thread";
          EXPECT_EQ(ServerChurnTraceHash({structured, sliding, anomaly, true, threads}), direct)
              << name << ": report plane at " << threads << " threads differs from direct mode";
        }
        combined = HashCombine(combined, direct);
        hashes << "\n  " << name << " 0x" << std::hex << direct << std::dec;
      }
    }
  }
  EXPECT_EQ(combined, kPinned) << std::hex << combined << std::dec << hashes.str();
}

}  // namespace
}  // namespace detector
