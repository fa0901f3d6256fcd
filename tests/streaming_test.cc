// Continuous-diagnosis tests: the ObservationStore's maintained running totals must stay
// bit-identical to the rebuilt reference (tests/store_reference.h) under slot invalidation,
// watchdog retro-drops and recoveries, concurrent shard ingest at any thread count, and
// windows that reuse the previous window's shard buffers — and a streaming window's
// final-segment diagnosis must be bit-identical to the batch window on the same seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <string>
#include <utility>
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

// The running totals and the rebuilt snapshot are integer counters over the same records —
// they must agree exactly, not approximately.
void ExpectRunningMatchesSnapshot(ObservationStore& store, size_t num_slots,
                                  const Watchdog& wd, const char* when) {
  const ObservationView running = store.RunningTotals(num_slots, wd);
  const Observations rebuilt = StoreReference::Snapshot(store, num_slots, wd);
  ASSERT_EQ(running.size(), num_slots) << when;
  ASSERT_EQ(rebuilt.size(), num_slots) << when;
  for (size_t s = 0; s < num_slots; ++s) {
    EXPECT_EQ(running[s].sent, rebuilt[s].sent) << when << " slot " << s;
    EXPECT_EQ(running[s].lost, rebuilt[s].lost) << when << " slot " << s;
  }
}

TEST(RunningTotals, MatchSnapshotThroughInvalidationAndWatchdogFlips) {
  const FatTree ft(4);
  Watchdog wd(ft.topology());
  ObservationStore store;
  store.EnsureSlots(4);

  const NodeId p1 = ft.Server(0, 0, 0);
  const NodeId p2 = ft.Server(0, 0, 1);
  const NodeId t1 = ft.Server(1, 0, 0);
  const NodeId t2 = ft.Server(1, 0, 1);

  ObservationStore::Shard& s1 = store.OpenShard(p1);
  ObservationStore::Shard& s2 = store.OpenShard(p2);
  s1.RecordPath(0, t1, 100, 10);
  s2.RecordPath(0, t1, 100, 8);  // replica of slot 0
  s2.RecordPath(2, t2, 50, 0);
  // One shard folds on its own, as a finished probe shard does; the read folds the other.
  store.FoldShard(s2);
  ExpectRunningMatchesSnapshot(store, 4, wd, "after first ingest");

  // Retroactive watchdog drop: p1's already-folded records must leave the totals...
  wd.MarkDown(p1);
  ExpectRunningMatchesSnapshot(store, 4, wd, "pinger flagged");
  // ...and records streamed while it is down stay excluded when folded.
  s1.RecordPath(2, t2, 30, 3);
  ExpectRunningMatchesSnapshot(store, 4, wd, "ingest while flagged");

  // A shard folded after a flip the store has not reconciled yet folds under the filter it
  // last applied; the read's reconciliation then adjusts the records folded so far.
  s1.RecordPath(0, t2, 10, 1);
  wd.MarkUp(p1);
  store.FoldShard(s1);
  // Recovery re-adds both the retro-dropped and the flagged-while-down records.
  ExpectRunningMatchesSnapshot(store, 4, wd, "pinger recovered");

  // Target flagged: only records towards it vanish, from every shard — also those a shard
  // folds after the reconciliation.
  wd.MarkDown(t1);
  store.ReconcileWatchdog(wd);
  s1.RecordPath(0, t1, 20, 2);
  s2.RecordPath(0, t1, 20, 5);
  store.FoldShard(s1);
  store.FoldShard(s2);
  ExpectRunningMatchesSnapshot(store, 4, wd, "target flagged");

  // Slot invalidation while a target filter is active: the bump retracts slot 2 in O(1);
  // the new occupant accumulates under the fresh epoch.
  const std::vector<PathId> vacated = {2};
  s2.RecordPath(2, t2, 15, 1);
  store.FoldShard(s2);
  store.InvalidateSlots(vacated);
  ExpectRunningMatchesSnapshot(store, 4, wd, "slot vacated");
  s1.RecordPath(2, t2, 60, 6);
  store.FoldShard(s1);
  ExpectRunningMatchesSnapshot(store, 4, wd, "slot reused");

  // Invalidate again with unfolded records on the old epoch in flight, then recover t1: the
  // stale records must not be re-added (their contribution was zeroed with the slot), whether
  // they fold before the recovery is reconciled or after.
  s2.RecordPath(2, t1, 40, 4);
  s1.RecordPath(2, t1, 25, 2);
  store.InvalidateSlots(vacated);
  store.FoldShard(s1);
  wd.MarkUp(t1);
  ExpectRunningMatchesSnapshot(store, 4, wd, "stale epoch not resurrected");

  // A record whose pinger and target are both flagged: each retraction or re-add must skip
  // the record while its other party stays filtered, or it is counted twice.
  const NodeId p3 = ft.Server(2, 0, 0);
  const NodeId t3 = ft.Server(3, 0, 0);
  ObservationStore::Shard& s3 = store.OpenShard(p3);
  s3.RecordPath(1, t3, 70, 7);
  s3.RecordPath(3, t2, 20, 2);
  s1.RecordPath(1, t3, 90, 9);
  store.FoldShard(s3);
  ExpectRunningMatchesSnapshot(store, 4, wd, "pinger and target healthy");
  wd.MarkDown(p3);
  ExpectRunningMatchesSnapshot(store, 4, wd, "pinger flagged first");
  wd.MarkDown(t3);
  store.ReconcileWatchdog(wd);
  s3.RecordPath(1, t3, 30, 3);
  s1.RecordPath(1, t3, 12, 1);
  store.FoldShard(s3);
  store.FoldShard(s1);
  ExpectRunningMatchesSnapshot(store, 4, wd, "target flagged second");
  wd.MarkUp(p3);
  ExpectRunningMatchesSnapshot(store, 4, wd, "pinger restored first");
  wd.MarkUp(t3);
  ExpectRunningMatchesSnapshot(store, 4, wd, "target restored second");
  wd.MarkDown(t3);
  ExpectRunningMatchesSnapshot(store, 4, wd, "target flagged first");
  wd.MarkDown(p3);
  ExpectRunningMatchesSnapshot(store, 4, wd, "pinger flagged second");
  wd.MarkUp(t3);
  ExpectRunningMatchesSnapshot(store, 4, wd, "target restored first");
  wd.MarkUp(p3);
  ExpectRunningMatchesSnapshot(store, 4, wd, "pinger restored second");
  // Both flagged between two reads, then restored one at a time.
  wd.MarkDown(p3);
  wd.MarkDown(t3);
  ExpectRunningMatchesSnapshot(store, 4, wd, "both flagged at once");
  wd.MarkUp(t3);
  ExpectRunningMatchesSnapshot(store, 4, wd, "target restored, pinger still flagged");
  // Crossing flips between two reads: one comes up while the other goes down, both ways.
  wd.MarkUp(p3);
  wd.MarkDown(t3);
  ExpectRunningMatchesSnapshot(store, 4, wd, "pinger up while target goes down");
  wd.MarkUp(t3);
  wd.MarkDown(p3);
  ExpectRunningMatchesSnapshot(store, 4, wd, "target up while pinger goes down");
  s3.RecordPath(1, t3, 10, 1);
  wd.MarkUp(p3);
  ExpectRunningMatchesSnapshot(store, 4, wd, "both restored");

  store.Clear();
  ExpectRunningMatchesSnapshot(store, 4, wd, "after clear");
  EXPECT_EQ(store.RunningTotals(4, wd)[0].sent, 0);
}

TEST(RunningTotals, GrowsWithTheSlotTable) {
  const FatTree ft(4);
  const Watchdog wd(ft.topology());
  ObservationStore store;
  store.EnsureSlots(2);
  store.OpenShard(ft.Server(0, 0, 0)).RecordPath(1, ft.Server(1, 0, 0), 10, 1);
  ExpectRunningMatchesSnapshot(store, 2, wd, "small table");
  // A larger matrix after repair: the view widens, old totals stay in place.
  store.EnsureSlots(6);
  store.OpenShard(ft.Server(0, 0, 0)).RecordPath(5, ft.Server(1, 0, 1), 20, 2);
  ExpectRunningMatchesSnapshot(store, 6, wd, "grown table");
  EXPECT_EQ(store.RunningTotals(6, wd)[1].sent, 10);
  EXPECT_EQ(store.RunningTotals(6, wd)[5].sent, 20);
}

// What one store exposes at a diagnosis boundary, read in the order a boundary reads it.
struct BoundaryReads {
  std::vector<PathObservation> totals;
  std::vector<RttSketch> rtt;  // per slot; a slot beyond the RTT span reads empty
  std::vector<IntraRackObservation> intra;
  ObservationStore::DirtySlots dirty;
};

BoundaryReads ReadBoundary(ObservationStore& store, size_t num_slots, const Watchdog& wd) {
  BoundaryReads reads;
  const ObservationView view = store.RunningTotals(num_slots, wd);
  reads.totals.assign(view.begin(), view.end());
  const std::span<const RttSketch> rtt = store.RttRunningTotals();
  reads.rtt.resize(num_slots);
  for (size_t s = 0; s < num_slots && s < rtt.size(); ++s) {
    reads.rtt[s] = rtt[s];
  }
  reads.intra = StoreReference::IntraRackObservations(store, wd);
  reads.dirty = store.TakeDirtySlots();
  return reads;
}

void ExpectSameSketches(const std::vector<RttSketch>& a, const std::vector<RttSketch>& b,
                        const std::string& when) {
  ASSERT_EQ(a.size(), b.size()) << when;
  for (size_t s = 0; s < a.size(); ++s) {
    EXPECT_EQ(a[s].total(), b[s].total()) << when << " slot " << s;
    EXPECT_TRUE(std::ranges::equal(a[s].bins(), b[s].bins())) << when << " slot " << s;
  }
}

// Clear() keeps each pinger's shard (and its buffers) for the pinger's next window. Across
// three windows whose pinger set and open order change, a reused store must read exactly
// like a fresh store fed the same records — totals, RTT totals, intra-rack order and dirty
// slots — and both must match the rebuilt reference.
TEST(ObservationStore, ClearKeepsBuffersNotResults) {
  const FatTree ft(4);
  Watchdog wd(ft.topology());
  constexpr size_t kSlots = 12;
  const NodeId a = ft.Server(0, 0, 0);
  const NodeId b = ft.Server(0, 0, 1);
  const NodeId c = ft.Server(1, 0, 0);
  const NodeId d = ft.Server(2, 1, 1);  // appears in the second window
  const NodeId far = ft.Server(3, 0, 0);
  // b drops out of the second window and returns in the third; the open order changes.
  const std::vector<std::vector<NodeId>> open_order = {{a, b, c}, {c, d, a}, {b, a, d, c}};
  const std::vector<NodeId> targets = {far, ft.Server(3, 1, 1), ft.Server(2, 0, 0), a, c};

  // One phase of a window's records: the same calls on whichever store it is given.
  auto stream = [&](ObservationStore& store, size_t window, int phase) {
    Rng rng(HashCombine(window, static_cast<uint64_t>(phase)));
    for (const NodeId pinger : open_order[window]) {
      ObservationStore::Shard& shard = store.OpenShard(pinger);
      for (int i = 0; i < 6; ++i) {
        const PathId slot = static_cast<PathId>(rng.NextBounded(kSlots));
        NodeId target = targets[rng.NextBounded(targets.size())];
        if (target == pinger) {
          target = far;
        }
        const int64_t sent = 1 + static_cast<int64_t>(rng.NextBounded(20));
        const int64_t lost = static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(sent)));
        if (i % 3 == 0) {
          shard.RecordPath(slot, target, sent, lost);
        } else if (i % 3 == 1) {
          RttSketch sketch(RttSketch::kDefaultBins);
          sketch.Record(100 + static_cast<int64_t>(rng.NextBounded(5000)));
          sketch.Record(100 + static_cast<int64_t>(rng.NextBounded(5000)));
          shard.RecordPathWithRtt(slot, target, sent, lost, std::move(sketch));
        } else {
          shard.RecordIntraRack(target, sent, lost);
        }
      }
    }
  };

  ObservationStore reused;
  reused.EnsureSlots(kSlots);
  std::map<NodeId, const ObservationStore::Shard*> last_window_shards;
  for (size_t window = 0; window < open_order.size(); ++window) {
    ObservationStore fresh;
    fresh.EnsureSlots(kSlots);
    auto compare = [&](const std::string& step) {
      const std::string when = "window " + std::to_string(window) + " " + step;
      const BoundaryReads r = ReadBoundary(reused, kSlots, wd);
      const BoundaryReads f = ReadBoundary(fresh, kSlots, wd);
      const Observations reference = StoreReference::Snapshot(fresh, kSlots, wd);
      ASSERT_EQ(r.totals.size(), kSlots) << when;
      ASSERT_EQ(f.totals.size(), kSlots) << when;
      for (size_t s = 0; s < kSlots; ++s) {
        EXPECT_EQ(r.totals[s].sent, f.totals[s].sent) << when << " slot " << s;
        EXPECT_EQ(r.totals[s].lost, f.totals[s].lost) << when << " slot " << s;
        EXPECT_EQ(r.totals[s].sent, reference[s].sent) << when << " slot " << s;
        EXPECT_EQ(r.totals[s].lost, reference[s].lost) << when << " slot " << s;
      }
      ExpectSameSketches(r.rtt, f.rtt, when + " rtt");
      ExpectSameSketches(r.rtt, StoreReference::RttSnapshot(reused, kSlots, wd),
                         when + " rtt reference");
      ASSERT_EQ(r.intra.size(), f.intra.size()) << when;
      for (size_t i = 0; i < r.intra.size(); ++i) {
        EXPECT_EQ(r.intra[i].pinger, f.intra[i].pinger) << when << " intra " << i;
        EXPECT_EQ(r.intra[i].target, f.intra[i].target) << when << " intra " << i;
        EXPECT_EQ(r.intra[i].sent, f.intra[i].sent) << when << " intra " << i;
        EXPECT_EQ(r.intra[i].lost, f.intra[i].lost) << when << " intra " << i;
      }
      EXPECT_EQ(r.dirty.all, f.dirty.all) << when;
      EXPECT_EQ(r.dirty.slots, f.dirty.slots) << when;
      EXPECT_EQ(r.dirty.watchdog_flipped, f.dirty.watchdog_flipped) << when;
    };

    stream(reused, window, 0);
    stream(fresh, window, 0);
    compare("first phase");
    // A pinger open in consecutive windows gets its own shard back.
    std::map<NodeId, const ObservationStore::Shard*> shards;
    for (const NodeId pinger : open_order[window]) {
      shards[pinger] = &reused.OpenShard(pinger);
      const auto last = last_window_shards.find(pinger);
      if (last != last_window_shards.end()) {
        EXPECT_EQ(shards[pinger], last->second) << "window " << window;
      }
    }
    EXPECT_EQ(reused.num_shards(), open_order[window].size());
    if (window == 1) {
      wd.MarkDown(c);  // a pinger and a target at once
      compare("pinger flagged");
    } else if (window == 2) {
      wd.MarkUp(c);
      wd.MarkDown(far);
      compare("watchdog flip");
    }
    stream(reused, window, 1);
    stream(fresh, window, 1);
    compare("second phase");
    reused.Clear();
    EXPECT_EQ(reused.num_shards(), 0u);
    last_window_shards = std::move(shards);
  }
}

// End-to-end acceptance: streaming diagnosis at a segment cadence produces a final result
// bit-identical to the batch window (cadence = segments: one diagnosis, at window end) on the
// same seed and slicing — at 1, 2 and 8 probe threads, with mid-window link churn AND a server
// retro-drop in the same window.
TEST(StreamingWindow, FinalSegmentMatchesBatchAcrossThreads) {
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  DetectorSystemOptions options;
  options.pmc.alpha = 1;
  options.pmc.beta = 1;
  options.controller.packets_per_second = 60;
  options.segments_per_window = 6;
  options.diagnose_every_segments = 2;

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

  for (const size_t threads : {1u, 2u, 8u}) {
    DetectorSystemOptions opts = options;
    opts.probe_threads = threads;

    DetectorSystemOptions batch_opts = opts;
    batch_opts.diagnose_every_segments = batch_opts.segments_per_window;
    DetectorSystem batch(routing, batch_opts);
    Rng batch_rng(4242);
    const auto batch_result = batch.RunWindowStreaming(scenario, churn, batch_rng).window;

    DetectorSystem streaming(routing, opts);
    Rng streaming_rng(4242);
    const auto streamed = streaming.RunWindowStreaming(scenario, churn, streaming_rng);

    ExpectIdenticalWindows(batch_result, streamed.window, "streaming vs batch");
    EXPECT_EQ(streamed.window.churn_events_applied, 3u);

    // Cadence 2 over 6 segments: boundaries at 10, 20, 30 s; the last one is the window's
    // own diagnosis.
    ASSERT_EQ(streamed.timeline.size(), 3u);
    EXPECT_EQ(streamed.timeline[0].segment, 2);
    EXPECT_DOUBLE_EQ(streamed.timeline[0].time_seconds, 10.0);
    EXPECT_DOUBLE_EQ(streamed.timeline[2].time_seconds, 30.0);
    ExpectIdenticalLocalizations(streamed.timeline.back().localization,
                                 streamed.window.localization, "final timeline entry");
    // The injected failure is seen before the window closes.
    const double first = streamed.FirstDetectionSeconds(f.link);
    EXPECT_GT(first, 0.0);
    EXPECT_LT(first, 30.0);
  }
}

// The calling thread folds a boundary-ending span's shards while the pool probes, under the
// watchdog filter it reconciles before the span starts. A server that goes down inside a
// segment, and comes back inside a later one, must leave every sliding-view boundary as it
// does at 1 thread. Had the span after the delta folded under the filter from before it, the
// records probed towards the server before the delta would fold, the boundary would retract
// them again, and the trailing ring would restart their slots — dropping the other replica's
// evidence of the failure those paths cross.
TEST(StreamingWindow, SlidingBoundariesMatchAcrossThreadsWhenATargetFlipsMidSegment) {
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  DetectorSystemOptions options;
  options.pmc.alpha = 2;
  options.pmc.beta = 1;
  options.controller.packets_per_second = 60;
  options.segments_per_window = 6;
  options.diagnose_every_segments = 1;
  options.streaming_view = StreamingViewMode::kSliding;
  options.sliding_window_segments = 3;

  // The target of the first matrix entry, and a switch link on that entry's route.
  NodeId target = kInvalidNode;
  LinkId crossed = kInvalidLink;
  {
    const DetectorSystem probe_lists(routing, options);
    for (const Pinglist& list : probe_lists.pinglists()) {
      for (const PinglistEntry& entry : list.entries) {
        if (entry.path_id >= 0 && crossed == kInvalidLink) {
          target = entry.target_server;
          crossed = entry.route[entry.route.size() / 2];
        }
      }
    }
  }
  ASSERT_NE(crossed, kInvalidLink);
  FailureScenario scenario;
  LinkFailure f;
  f.link = crossed;
  f.type = FailureType::kFullLoss;
  scenario.failures.push_back(f);
  const std::vector<ChurnEvent> churn = {{2.0, TopologyDelta::NodeDown(target)},
                                         {12.0, TopologyDelta::NodeUp(target)}};

  // Direct mode at 1, 2 and 8 threads, then the report plane at 2 and 8.
  const std::vector<std::pair<size_t, bool>> configs = {
      {1, false}, {2, false}, {8, false}, {2, true}, {8, true}};
  std::vector<DetectorSystem::StreamingWindowResult> runs;
  for (const auto& [threads, report] : configs) {
    DetectorSystemOptions opts = options;
    opts.probe_threads = threads;
    opts.report_plane = report;
    opts.report_collectors = report ? 2 : 1;
    DetectorSystem system(routing, opts);
    Rng rng(77);
    runs.push_back(system.RunWindowStreaming(scenario, churn, rng));
  }
  ASSERT_EQ(runs[0].timeline.size(), 6u);
  EXPECT_GT(runs[0].FirstDetectionSeconds(crossed), 0.0);
  for (size_t r = 1; r < runs.size(); ++r) {
    const std::string when = std::string(configs[r].second ? "report" : "direct") + " at " +
                             std::to_string(configs[r].first) + " threads vs direct at 1";
    ExpectIdenticalWindows(runs[0].window, runs[r].window, when);
    ASSERT_EQ(runs[r].timeline.size(), runs[0].timeline.size()) << when;
    for (size_t b = 0; b < runs[0].timeline.size(); ++b) {
      ExpectIdenticalLocalizations(runs[0].timeline[b].localization,
                                   runs[r].timeline[b].localization,
                                   when + ", boundary " + std::to_string(b + 1));
    }
  }
}

TEST(StreamingWindow, CadenceDoesNotChangeTheFinalResult) {
  // Mid-window diagnoses are non-consuming: diagnosing every segment and diagnosing only at
  // the end must produce the same final window.
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  DetectorSystemOptions options;
  options.pmc.alpha = 1;
  options.pmc.beta = 1;
  options.controller.packets_per_second = 60;
  options.segments_per_window = 5;

  FailureScenario scenario;
  LinkFailure f;
  f.link = ft.AggCoreLink(0, 1, 0);
  f.type = FailureType::kRandomPartial;
  f.loss_rate = 0.2;
  scenario.failures.push_back(f);

  std::vector<DetectorSystem::WindowResult> finals;
  std::vector<size_t> timeline_sizes;
  for (const int cadence : {1, 5}) {
    DetectorSystemOptions opts = options;
    opts.diagnose_every_segments = cadence;
    DetectorSystem system(routing, opts);
    Rng rng(99);
    const auto streamed = system.RunWindowStreaming(scenario, {}, rng);
    finals.push_back(streamed.window);
    timeline_sizes.push_back(streamed.timeline.size());
  }
  ExpectIdenticalWindows(finals[0], finals[1], "cadence 1 vs 5");
  EXPECT_EQ(timeline_sizes[0], 5u);
  EXPECT_EQ(timeline_sizes[1], 1u);
}

TEST(IntraRackFiltering, DownedTargetsDrawNoProbes) {
  const FatTree ft(4);
  Watchdog wd(ft.topology());
  const NodeId pinger_node = ft.Server(0, 0, 0);
  const NodeId healthy_target = ft.Server(0, 0, 1);
  const NodeId downed_target = ft.Server(0, 1, 0);

  Pinglist list;
  list.pinger = pinger_node;
  list.packets_per_second = 10.0;
  PinglistEntry to_healthy;
  to_healthy.path_id = PinglistEntry::kIntraRackPath;
  to_healthy.target_server = healthy_target;
  to_healthy.route = {ft.topology().FindLink(pinger_node, ft.Tor(0, 0)),
                      ft.topology().FindLink(ft.Tor(0, 0), healthy_target)};
  PinglistEntry to_downed = to_healthy;
  to_downed.target_server = downed_target;
  list.entries = {to_healthy, to_downed};

  ProbeConfig probe;
  probe.base_loss_rate = 0.0;
  const ProbeEngine engine(ft.topology(), FailureScenario{}, probe);
  const Pinger pinger(list, /*confirm_packets=*/0);

  wd.MarkDown(downed_target);
  Rng rng(5);
  const auto filtered = pinger.RunWindow(engine, 30.0, rng, &wd);
  // Only the healthy target is probed, and it inherits the skipped entry's budget share:
  // the full 300-packet window budget instead of 150.
  ASSERT_EQ(filtered.reports.size(), 1u);
  EXPECT_EQ(filtered.reports[0].target, healthy_target);
  EXPECT_EQ(filtered.reports[0].sent, 300);
  EXPECT_EQ(filtered.probes_sent, 300);

  // Without a watchdog (standalone mode) both entries still run.
  Rng rng2(5);
  const auto unfiltered = pinger.RunWindow(engine, 30.0, rng2);
  EXPECT_EQ(unfiltered.reports.size(), 2u);
}

TEST(IntraRackFiltering, SystemStopsProbingDownedServerMidWindow) {
  // A server dies mid-window via churn: the remaining slices must not probe it intra-rack,
  // and the streaming window still matches batch (the filter is part of both paths).
  // FatTree(6) has 3 servers per rack with 2 pingers, so non-pinger targets exist.
  const FatTree ft(6);
  const FatTreeRouting routing(ft);
  DetectorSystemOptions options;
  options.pmc.alpha = 1;
  options.pmc.beta = 1;
  options.controller.packets_per_second = 40;
  options.segments_per_window = 4;
  DetectorSystem probe_system(routing, options);

  // Pick a server that is a target but not a pinger, so its shard does not simply vanish.
  NodeId victim = kInvalidNode;
  for (const Pinglist& list : probe_system.pinglists()) {
    for (const PinglistEntry& entry : list.entries) {
      if (entry.path_id == PinglistEntry::kIntraRackPath) {
        bool is_pinger = false;
        for (const Pinglist& other : probe_system.pinglists()) {
          is_pinger |= other.pinger == entry.target_server && !other.entries.empty();
        }
        if (!is_pinger) {
          victim = entry.target_server;
        }
      }
    }
  }
  ASSERT_NE(victim, kInvalidNode);

  std::vector<ChurnEvent> churn;
  churn.push_back(ChurnEvent{10.0, TopologyDelta::NodeDown(victim)});

  DetectorSystemOptions batch_options = options;
  batch_options.diagnose_every_segments = batch_options.segments_per_window;
  DetectorSystem batch(routing, batch_options);
  Rng batch_rng(31);
  const auto batch_result =
      batch.RunWindowStreaming(FailureScenario{}, churn, batch_rng).window;

  DetectorSystem streaming(routing, options);
  Rng streaming_rng(31);
  const auto streamed = streaming.RunWindowStreaming(FailureScenario{}, churn, streaming_rng);
  ExpectIdenticalWindows(batch_result, streamed.window, "server down mid-window");
  EXPECT_FALSE(streaming.watchdog().IsHealthy(victim));
}

}  // namespace
}  // namespace detector
