#include "src/detector/system.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>
#include <unordered_set>

#include "src/net/loopback.h"

namespace detector {

DetectorSystem::DetectorSystem(const PathProvider& provider, DetectorSystemOptions options)
    : topo_(provider.topology()),
      options_(options),
      incremental_(std::make_unique<IncrementalPmc>(
          topo_, provider.Enumerate(options.enum_mode), options.pmc)),
      matrix_(incremental_->BuildMatrix()),
      pmc_stats_(incremental_->initial_stats()),
      overlay_(topo_),
      watchdog_(topo_),
      controller_(topo_, options.controller),
      analyzer_(options_, matrix_, watchdog_),
      latency_model_(options.latency) {
  incremental_->set_repair_threads(std::max(0, options_.pmc_repair_threads));
  pinglists_ = controller_.BuildPinglists(matrix_, watchdog_);
  path_index_ = PathPingerIndex::Build(pinglists_);
  for (const Pinglist& list : pinglists_) {
    version_floor_[list.pinger] = list.version;
  }
}

DetectorSystem::DetectorSystem(const Topology& topo, ProbeMatrix matrix,
                               DetectorSystemOptions options)
    : topo_(topo),
      options_(options),
      matrix_(std::move(matrix)),
      overlay_(topo_),
      watchdog_(topo_),
      controller_(topo_, options.controller),
      analyzer_(options_, matrix_, watchdog_),
      latency_model_(options.latency) {
  pinglists_ = controller_.BuildPinglists(matrix_, watchdog_);
  path_index_ = PathPingerIndex::Build(pinglists_);
  for (const Pinglist& list : pinglists_) {
    version_floor_[list.pinger] = list.version;
  }
}

void DetectorSystem::SetReportTransportFactory(
    std::function<std::unique_ptr<Transport>(size_t)> factory) {
  report_transport_factory_ = std::move(factory);
  report_transports_.clear();
}

PartitionMap DetectorSystem::BuildReportPartition() const {
  std::vector<NodeId> pingers;
  pingers.reserve(pinglists_.size());
  for (const Pinglist& list : pinglists_) {
    pingers.push_back(list.pinger);
  }
  return PartitionMap::Build(std::move(pingers), std::max<size_t>(1, options_.report_collectors));
}

void DetectorSystem::PrepareReportFabric() {
  const size_t n = std::max<size_t>(1, options_.report_collectors);
  if (collector_group_ == nullptr) {
    CollectorGroupOptions group_options;
    group_options.num_collectors = n;
    group_options.collector.key = options_.report_key;
    group_options.collector.liveness_horizon = options_.report_liveness_horizon;
    group_options.collector.rtt_bins = options_.rtt_bins;
    collector_group_ = std::make_unique<CollectorGroup>(analyzer_.diagnoser().store(),
                                                        BuildReportPartition(), group_options);
  } else {
    // Pinger churn across windows repartitions deterministically (PartitionMap::Build is a
    // pure function of the pinger set).
    collector_group_->Repartition(BuildReportPartition());
  }
  // Every backend at the first window; again after SetReportTransportFactory dropped them.
  while (report_transports_.size() < n) {
    const size_t i = report_transports_.size();
    report_transports_.push_back(report_transport_factory_ != nullptr
                                     ? report_transport_factory_(i)
                                     : std::make_unique<LoopbackTransport>());
  }
}

void DetectorSystem::EnforceVersionFloors(std::vector<PinglistDiff>& diffs) {
  if (diffs.empty()) {
    return;
  }
  std::map<NodeId, Pinglist*> by_pinger;
  for (Pinglist& list : pinglists_) {
    by_pinger.emplace(list.pinger, &list);
  }
  for (PinglistDiff& diff : diffs) {
    Pinglist* list = by_pinger.at(diff.pinger);
    const auto it = version_floor_.find(diff.pinger);
    if (it != version_floor_.end() && list->version <= it->second) {
      list->version = it->second + 1;
    }
    diff.version = list->version;
    version_floor_[diff.pinger] = list->version;
  }
}

void DetectorSystem::RecomputeCycle() {
  if (incremental_ != nullptr) {
    pmc_stats_ = incremental_->FullResolve();
    matrix_ = incremental_->BuildMatrix();
    // The rebuilt matrix rewires slots; the diagnoser's cached PLL partition is stale, and so
    // is every per-slot anomaly baseline (slot identities do not survive a rebuild).
    analyzer_.InvalidateSlots();
  }
  pinglists_ = controller_.BuildPinglists(matrix_, watchdog_);
  path_index_ = PathPingerIndex::Build(pinglists_);

  // Fixed-matrix mode keeps dead-link paths in the matrix; withdraw their entries so the
  // rebuild respects the overlay like the incremental path does (whose FullResolve already
  // excludes dead links from the matrix itself).
  if (incremental_ == nullptr && overlay_.NumDeadLinks() > 0) {
    std::vector<PathId> dead_paths;
    for (int32_t d = 0; d < matrix_.NumLinks(); ++d) {
      if (overlay_.IsLinkLive(matrix_.links().Link(d))) {
        continue;
      }
      const auto through = matrix_.PathsThroughDense(d);
      dead_paths.insert(dead_paths.end(), through.begin(), through.end());
    }
    std::sort(dead_paths.begin(), dead_paths.end());
    dead_paths.erase(std::unique(dead_paths.begin(), dead_paths.end()), dead_paths.end());
    controller_.UpdatePinglists(pinglists_, matrix_, watchdog_, dead_paths, {}, {}, {},
                                &path_index_);
  }

  // A full rebuild is a new pinglist generation for every pinger: versions must move strictly
  // forward past each pinger's high-water mark — which outlives the lists themselves, so a
  // pinger whose list vanished for a cycle does not restart at 1 when it returns.
  for (Pinglist& list : pinglists_) {
    int& floor = version_floor_[list.pinger];
    list.version = floor + 1;
    floor = list.version;
  }
}

DetectorSystem::ChurnApplyResult DetectorSystem::ApplyTopologyDelta(const TopologyDelta& delta) {
  ChurnApplyResult out;

  // Server churn routes to the watchdog (pinger eligibility); the affected paths are
  // re-dispatched below so replicas move off a downed pinger immediately instead of waiting
  // for the next recompute cycle, and intra-rack entries targeting the server are withdrawn
  // from (on recovery: restored to) the standing pinglists. Deliberately NOT gated on a
  // health transition: the delta may be confirming a server the watchdog already flagged
  // out-of-band (health telemetry), whose entries still stand and must be moved now. Both
  // directions are idempotent — removal finds nothing the second time, and the re-add
  // dedups against standing entries — so a repeated delta is a no-op.
  std::vector<NodeId> downed_servers;
  std::vector<NodeId> recovered_servers;
  for (const NodeChurn& ev : delta.nodes) {
    if (!topo_.IsServer(ev.node)) {
      continue;
    }
    if (ev.action == ChurnAction::kDown || ev.action == ChurnAction::kDrain) {
      watchdog_.MarkDown(ev.node);
      downed_servers.push_back(ev.node);
    } else {
      watchdog_.MarkUp(ev.node);
      recovered_servers.push_back(ev.node);
    }
  }

  const LinkStateOverlay::Effect effect = overlay_.Apply(delta);
  out.links_gone_dead = effect.now_dead.size();
  out.links_back_live = effect.now_live.size();
  out.overlay_version = effect.version;

  std::vector<PathId> removed;
  std::vector<PathId> added;
  if (incremental_ != nullptr) {
    IncrementalPmc::DeltaOutcome outcome = incremental_->ApplyDelta(effect);
    out.repair = outcome.stats;
    out.slots_vacated = outcome.removed_slots;
    removed = std::move(outcome.removed_slots);
    added = std::move(outcome.added_slots);
    if (!removed.empty() || !added.empty()) {
      matrix_ = incremental_->BuildMatrix();
      // Slot reuse keeps the matrix dimensions while rewiring paths, so the diagnoser's
      // cached PLL partition cannot detect the change itself — drop it explicitly, along with
      // the anomaly baselines keyed to the old slot identities.
      analyzer_.InvalidateSlots();
    }
  } else {
    // Fixed-matrix mode: no candidate set to repair from. Entries on dead links are withdrawn
    // (their coverage hole persists until the link returns) and entries whose every link is
    // live again are restored.
    for (const LinkId link : effect.now_dead) {
      if (matrix_.links().Dense(link) < 0) {
        continue;
      }
      for (const PathId pid : matrix_.PathsThrough(link)) {
        removed.push_back(pid);
      }
    }
    for (const LinkId link : effect.now_live) {
      if (matrix_.links().Dense(link) < 0) {
        continue;
      }
      for (const PathId pid : matrix_.PathsThrough(link)) {
        const auto links = matrix_.paths().Links(pid);
        if (std::all_of(links.begin(), links.end(),
                        [&](LinkId l) { return overlay_.IsLinkLive(l); })) {
          added.push_back(pid);
        }
      }
    }
    // Entries are withdrawn for every path over a dead monitored link, so coverage is whole
    // exactly when none remain — including holes left by earlier deltas. Dead links outside
    // the matrix domain (e.g. a downed server's rack link) do not open coverage holes.
    out.repair.alpha_satisfied = true;
    for (int32_t d = 0; d < matrix_.NumLinks(); ++d) {
      if (!overlay_.IsLinkLive(matrix_.links().Link(d))) {
        out.repair.alpha_satisfied = false;
        break;
      }
    }
  }

  // Re-dispatch the paths a downed server was pinging or answering for.
  if (!downed_servers.empty()) {
    const std::unordered_set<NodeId> down(downed_servers.begin(), downed_servers.end());
    const std::unordered_set<PathId> already_removed(removed.begin(), removed.end());
    for (const Pinglist& list : pinglists_) {
      const bool pinger_down = down.count(list.pinger) > 0;
      for (const PinglistEntry& entry : list.entries) {
        if (entry.path_id < 0) {
          continue;  // intra-rack entries are keyed by target and removed by UpdatePinglists
        }
        if (pinger_down || down.count(entry.target_server) > 0) {
          removed.push_back(entry.path_id);
          if (already_removed.count(entry.path_id) == 0 &&
              matrix_.paths().PathLength(entry.path_id) > 0) {
            added.push_back(entry.path_id);
          }
        }
      }
    }
  }

  auto sort_unique = [](std::vector<PathId>& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  sort_unique(removed);
  sort_unique(added);
  out.paths_removed = removed.size();
  out.paths_added = added.size();
  if (incremental_ == nullptr) {
    // Fixed-matrix mode has no solver stats; mirror the deduplicated entry-level counts
    // (a path through two transitioned links counts once).
    out.repair.dropped_paths = removed.size();
    out.repair.added_paths = added.size();
  }

  PinglistUpdate update =
      controller_.UpdatePinglists(pinglists_, matrix_, watchdog_, removed, added,
                                  downed_servers, recovered_servers, &path_index_);
  out.pinglists_touched = update.lists_touched;
  out.entries_removed = update.entries_removed;
  out.entries_added = update.entries_added;
  out.diffs = std::move(update.diffs);
  EnforceVersionFloors(out.diffs);
  return out;
}

void DetectorSystem::RunSpan(const FailureScenario& scenario, double t0, double t1, Rng& rng,
                             WindowResult& result) {
  if (scenario.episodes.empty()) {
    RunSegment(scenario, t1 - t0, rng, result);
    return;
  }
  // Cut [t0, t1) at the episode boundaries inside it; each piece probes under the failure set
  // active at its start (fixed across the piece by construction).
  std::vector<double> cuts;
  for (const FailureEpisode& episode : scenario.episodes) {
    for (const double t : {episode.start_seconds, episode.end_seconds}) {
      if (t > t0 + 1e-9 && t < t1 - 1e-9) {
        cuts.push_back(t);
      }
    }
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.push_back(t1);
  double at = t0;
  for (const double cut : cuts) {
    if (cut - at <= 1e-9) {
      continue;
    }
    FailureScenario active = scenario;
    active.episodes.clear();
    for (const FailureEpisode& episode : scenario.episodes) {
      if (episode.start_seconds <= at + 1e-9 && at + 1e-9 < episode.end_seconds) {
        active.failures.push_back(episode.failure);
      }
    }
    RunSegment(active, cut - at, rng, result);
    at = cut;
  }
}

FailureScenario DetectorSystem::OverlaidScenario(const FailureScenario& scenario) const {
  if (overlay_.NumDeadLinks() == 0) {
    return scenario;
  }
  FailureScenario overlaid = scenario;  // scenario failures win ProbeEngine's first-wins dedup
  for (const LinkId link : overlay_.FailedLinks()) {
    LinkFailure failure;
    failure.link = link;
    failure.type = FailureType::kFullLoss;
    failure.loss_rate = 1.0;
    overlaid.failures.push_back(failure);
  }
  return overlaid;
}

void DetectorSystem::RunSegment(const FailureScenario& scenario, double seconds, Rng& rng,
                                WindowResult& result) {
  ProbeEngine engine(topo_, OverlaidScenario(scenario), options_.probe);
  if (options_.anomaly) {
    // RTT observation rides the same per-shard RNG streams; sampling draws happen after all
    // loss draws, so the loss counters match an anomaly-off run draw for draw.
    engine.AttachRttObservation(&latency_model_, {}, options_.rtt_samples_per_path,
                                options_.rtt_bins);
  }

  // Serial phase: one shard per non-empty pinglist, opened before any thread runs. The caller's
  // rng advances exactly once (the window seed) however many shards or threads execute, and
  // each shard's stream is keyed by its pinger id — so the segment's counters are bit-identical
  // at any thread count, including 1.
  ObservationStore& store = analyzer_.diagnoser().store();
  store.EnsureSlots(matrix_.NumPaths());
  const uint64_t window_seed = rng();
  const bool report = options_.report_plane;
  struct ShardWork {
    const Pinglist* list;
    ObservationStore::Shard* shard;
    Transport* transport;  // report mode: the owning collector partition's transport
    uint64_t seq;          // report mode: the pinger's next frame seq in this window
  };
  std::vector<ShardWork> work;
  work.reserve(pinglists_.size());
  for (const Pinglist& list : pinglists_) {
    if (list.entries.empty()) {
      continue;
    }
    // Report mode opens the shards here too: the collector folds into shards looked up by
    // pinger id, and opening them at this serial point in pinglist order keeps shard creation
    // order — and with it intra-rack record order — identical to direct mode.
    ShardWork shard_work{&list, &store.OpenShard(list.pinger), nullptr, 0};
    if (report) {
      // Frames route to the transport of the collector partition that owns this pinger —
      // the agent side of the fabric's partition map.
      shard_work.transport =
          report_transports_[static_cast<size_t>(collector_group_->RouteOf(list.pinger))].get();
      shard_work.seq = report_seq_[list.pinger];
    }
    work.push_back(shard_work);
  }

  // The pool is sized by the configured thread count alone — shard-count fluctuations across
  // segments (churn emptying a pinglist) must not tear workers down and restart them.
  const size_t configured = options_.probe_threads != 0
                                ? options_.probe_threads
                                : std::max<size_t>(1, std::thread::hardware_concurrency());
  // One emitter per pool task (at most one per configured thread), re-armed for every shard
  // the task runs and kept across segments and windows with the buffers it grew.
  if (report && report_emitters_.size() < configured) {
    report_emitters_.resize(configured);
  }

  // Parallel phase: each shard is written by exactly one worker; traffic totals land in a
  // per-shard array and are reduced in shard order afterwards. In report mode the worker
  // writes wire frames to the transport instead of the store, and the collector is the
  // store's only writer.
  std::vector<PingerTraffic> traffic(work.size());
  std::atomic<size_t> shards_left{work.size()};
  auto run_shard = [&](size_t i, size_t task) {
    ShardWork& w = work[i];
    Rng shard_rng = ProbeEngine::ShardRng(window_seed, static_cast<uint64_t>(w.list->pinger));
    Pinger pinger(*w.list, options_.confirm_packets);
    // The watchdog filters intra-rack entries towards downed servers (it mutates only at
    // serial points, so concurrent shards may read it).
    if (report) {
      std::unique_ptr<ReportEmitter>& emitter = report_emitters_[task];
      if (emitter == nullptr) {
        emitter = std::make_unique<ReportEmitter>(w.list->pinger, report_window_id_, w.seq,
                                                  store.slot_epochs(), *w.transport,
                                                  options_.report_batch_entries,
                                                  options_.report_key);
      } else {
        emitter->Rearm(w.list->pinger, report_window_id_, w.seq, store.slot_epochs(),
                       *w.transport);
      }
      traffic[i] = pinger.RunWindowTo(engine, seconds, shard_rng, *emitter, &watchdog_);
      emitter->Flush();
      w.seq = emitter->next_seq();
    } else {
      traffic[i] = pinger.RunWindowInto(engine, seconds, shard_rng, *w.shard, &watchdog_);
    }
    shards_left.fetch_sub(1, std::memory_order_release);
  };
  if (configured <= 1 || work.size() <= 1) {
    for (size_t i = 0; i < work.size(); ++i) {
      run_shard(i, 0);
    }
  } else {
    if (pool_ == nullptr) {
      pool_ = std::make_unique<ThreadPool>(configured);
    }
    std::atomic<size_t> next{0};
    // In report mode one worker runs the pump (which also takes shards when idle); the shard
    // loop tasks share the rest.
    const size_t shard_workers = report ? configured - 1 : configured;
    const size_t tasks = std::min(shard_workers, work.size());
    if (report) {
      // Concurrent ingest on the same pool, submitted FIRST so one worker pumps from the
      // start: frames decode and fold while the other workers probe, instead of piling up in
      // the transports until the barrier below. A pass that folds nothing takes the next
      // probe shard instead of idling, so the pump probes too until every shard is taken, and
      // only then yields between passes. Results do not depend on who runs a shard: each
      // shard still runs on one thread, so its frames reach its transport in order, and the
      // pump — the store's only writer — folds each pinger's frames first-in, first-out into
      // that pinger's store shard. It terminates unconditionally once all shards finished —
      // even if it somehow only got scheduled after them.
      pool_->Submit([&] {
        bool shards_taken = false;
        while (shards_left.load(std::memory_order_acquire) > 0) {
          size_t folded = 0;
          for (size_t c = 0; c < collector_group_->num_collectors(); ++c) {
            folded += collector_group_->collector(c).PumpFrom(*report_transports_[c]);
          }
          if (folded != 0) {
            continue;
          }
          if (!shards_taken) {
            const size_t i = next.fetch_add(1);
            if (i < work.size()) {
              run_shard(i, tasks);
              continue;
            }
            shards_taken = true;
          }
          std::this_thread::yield();
        }
      });
    }
    for (size_t t = 0; t < tasks; ++t) {
      pool_->Submit([&, t] {
        for (size_t i = next.fetch_add(1); i < work.size(); i = next.fetch_add(1)) {
          run_shard(i, t);
        }
      });
    }
    pool_->WaitAll();
  }
  if (report) {
    // Ingest barrier: everything sent and not dropped folds before the segment closes, which
    // is what makes the lossless loopback bit-identical to direct mode — no report straddles
    // a diagnosis boundary or a churn-driven slot invalidation.
    for (size_t c = 0; c < collector_group_->num_collectors(); ++c) {
      report_transports_[c]->Flush();
      collector_group_->collector(c).PumpFrom(*report_transports_[c]);
    }
    for (const ShardWork& shard_work : work) {
      report_seq_[shard_work.list->pinger] = shard_work.seq;
    }
  }
  for (const PingerTraffic& t : traffic) {
    result.probes_sent += t.probes_sent;
    result.bytes_sent += t.bytes_sent;
  }
}

double DetectorSystem::StreamingWindowResult::FirstDetectionSeconds(LinkId link) const {
  for (const SegmentDiagnosis& d : timeline) {
    for (const SuspectLink& suspect : d.localization.links) {
      if (suspect.link == link) {
        return d.time_seconds;
      }
    }
  }
  return -1.0;
}

DetectorSystem::StreamingWindowResult DetectorSystem::RunWindowStreaming(
    const FailureScenario& scenario, std::span<const ChurnEvent> churn, Rng& rng) {
  StreamingWindowResult out;
  WindowResult& result = out.window;
  const int segments = std::max(1, options_.segments_per_window);
  const int cadence = std::max(1, options_.diagnose_every_segments);
  const double window = options_.window_seconds;

  analyzer_.OpenWindow();
  if (options_.report_plane) {
    // Open the report-plane window: partition the collector fabric over the current
    // pinglists, and open a fresh window id that namespaces this window's frame sequence
    // numbers — a straggler from the previous window is recognized as stale instead of
    // folding into the wrong aggregation period.
    PrepareReportFabric();
    ++report_window_id_;
    report_seq_.clear();
    collector_group_->BeginWindow(report_window_id_);
  }

  // The window is sliced at segment boundaries and churn-event timestamps; every slice is one
  // RunSegment (own shard seed). With segments == 1 this is exactly the classic batch window —
  // same slices, same RNG draws.
  size_t next_event = 0;
  double t = 0.0;
  for (int seg = 1; seg <= segments; ++seg) {
    const double boundary = seg == segments ? window : seg * (window / segments);
    while (next_event < churn.size() && churn[next_event].time_seconds < window &&
           churn[next_event].time_seconds < boundary) {
      const ChurnEvent& event = churn[next_event];
      if (event.time_seconds - t > 1e-9) {
        RunSpan(scenario, t, event.time_seconds, rng, result);
      }
      const ChurnApplyResult applied = ApplyTopologyDelta(event.delta);
      // Earlier slices may have reported on the vacated slots; repair can reuse them within
      // this window and the final matrix no longer carries the old paths, so those stale
      // reports must not reach Diagnose. (Redispatched paths keep their slots — and their
      // observations.)
      analyzer_.diagnoser().DropReports(applied.slots_vacated);
      ++result.churn_events_applied;
      t = std::max(t, event.time_seconds);
      ++next_event;
    }
    if (boundary - t > 1e-9) {
      RunSpan(scenario, t, boundary, rng, result);
      t = boundary;
    }
    if (seg == segments) {
      break;  // the window end closes below
    }
    if (options_.report_plane) {
      // A segment boundary is a liveness tick: a pinger silent past the collectors' horizon
      // of ticks reads as stale.
      collector_group_->AdvanceBoundary();
    }
    // Every boundary advances the streaming views (cumulative dirty set, sliding ring) —
    // O(slots changed this segment) — whether or not it diagnoses.
    analyzer_.diagnoser().AdvanceSegment(matrix_, watchdog_);
    if (seg % cadence == 0) {
      // Non-consuming diagnosis: the window keeps accumulating, and the close below sees
      // exactly what it would without mid-window diagnoses.
      WindowDiagnosis d = analyzer_.DiagnoseBoundary(seg, boundary);
      out.timeline.push_back(SegmentDiagnosis{seg, boundary, std::move(d.localization),
                                              std::move(d.server_link_alarms),
                                              std::move(d.anomalies)});
    }
  }
  WindowDiagnosis end =
      analyzer_.CloseWindow(segments, window, result.churn_events_applied,
                            overlay_.NumDeadLinks(), result.probes_sent, result.bytes_sent);
  result.localization = std::move(end.localization);
  result.server_link_alarms = std::move(end.server_link_alarms);
  result.anomalies = std::move(end.anomalies);
  // Detection and localization share the window's data: alarms are available one window after
  // the failure manifests, with no extra probing round.
  result.detection_latency_seconds = options_.window_seconds;
  // The window-end diagnosis always happens, so the timeline always records it — whether or
  // not the last segment lands on the cadence. FirstDetectionSeconds therefore never misses a
  // failure the window result names.
  out.timeline.push_back(SegmentDiagnosis{segments, window, result.localization,
                                          result.server_link_alarms, result.anomalies});
  return out;
}

}  // namespace detector
