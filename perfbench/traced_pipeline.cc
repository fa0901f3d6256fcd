#include "perfbench/traced_pipeline.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "src/net/loopback.h"
#include "src/report/emitter.h"

namespace perfbench {

using namespace detector;

TracedPipeline::TracedPipeline(const Topology& topo, const PathProvider* provider,
                               ProbeMatrix matrix, const DetectorSystemOptions& options,
                               SpanRecorder& recorder, ThreadPool* pool)
    : topo_(topo),
      options_(options),
      rec_(recorder),
      pool_(pool),
      overlay_(topo),
      watchdog_(topo),
      controller_(topo, options.controller),
      diagnoser_(options.pll),
      latency_model_(options.latency),
      anomaly_engine_(options.anomaly_options) {
  n_.window = rec_.Name("window");
  n_.pool = rec_.Name("common.pool");
  n_.probe = rec_.Name("sim.probe");
  n_.engine = rec_.Name("sim.engine");
  n_.record = rec_.Name("detector.store.record");
  n_.totals = rec_.Name("detector.store.totals");
  n_.encode = rec_.Name("report.encode");
  n_.send = rec_.Name("net.send");
  n_.recv = rec_.Name("net.recv");
  n_.decode_fold = rec_.Name("report.decode_fold");
  n_.advance = rec_.Name("detector.advance");
  n_.pll = rec_.Name("localize.pll");
  n_.alarms = rec_.Name("detector.alarms");
  n_.anomaly = rec_.Name("anomaly.observe");
  n_.seal = rec_.Name("history.seal");
  n_.append = rec_.Name("history.append");
  n_.delta = rec_.Name("detector.delta");
  n_.overlay = rec_.Name("topo.overlay");
  n_.repair = rec_.Name("pmc.repair");
  n_.render = rec_.Name("pmc.render");
  n_.controller = rec_.Name("detector.controller");
  n_.invalidate = rec_.Name("detector.store.invalidate");

  if (provider != nullptr) {
    const int64_t start = NowNs();
    incremental_ = std::make_unique<IncrementalPmc>(topo_, provider->Enumerate(options_.enum_mode),
                                                    options_.pmc);
    matrix_ = incremental_->BuildMatrix();
    counters_.pmc_build_s = static_cast<double>(NowNs() - start) * 1e-9;
    incremental_->set_repair_threads(std::max(0, options_.pmc_repair_threads));
  } else {
    matrix_ = std::move(matrix);
  }
  diagnoser_.set_sliding_segments(options_.streaming_view == StreamingViewMode::kSliding
                                      ? std::max(1, options_.sliding_window_segments)
                                      : 0);
  diagnoser_.set_decay_factor(0.0);
  diagnoser_.set_decay_quantized(false);
  pinglists_ = controller_.BuildPinglists(matrix_, watchdog_);
  path_index_ = PathPingerIndex::Build(pinglists_);
  if (!options_.history_dir.empty()) {
    WindowLogOptions log_options;
    log_options.max_records_per_segment = options_.history_segment_records;
    log_options.max_segments = options_.history_max_segments;
    log_options.key = options_.report_key;
    history_log_ = std::make_unique<WindowLogWriter>(options_.history_dir, log_options);
  }
}

PartitionMap TracedPipeline::BuildReportPartition() const {
  std::vector<NodeId> pingers;
  pingers.reserve(pinglists_.size());
  for (const Pinglist& list : pinglists_) {
    pingers.push_back(list.pinger);
  }
  return PartitionMap::Build(std::move(pingers), std::max<size_t>(1, options_.report_collectors));
}

void TracedPipeline::PrepareReportFabric() {
  if (group_ == nullptr) {
    CollectorGroupOptions group_options;
    group_options.num_collectors = std::max<size_t>(1, options_.report_collectors);
    group_options.collector.ingest_shards = std::max<size_t>(1, options_.report_ingest_shards);
    group_options.collector.key = options_.report_key;
    group_options.collector.liveness_horizon = options_.report_liveness_horizon;
    group_ = std::make_unique<CollectorGroup>(diagnoser_.store(), BuildReportPartition(),
                                              group_options);
    for (size_t c = 0; c < group_options.num_collectors; ++c) {
      transports_.push_back(
          std::make_unique<TimedTransport>(std::make_unique<LoopbackTransport>(), rec_, n_.send,
                                           n_.recv));
    }
  } else {
    group_->Repartition(BuildReportPartition());
  }
}

FailureScenario TracedPipeline::OverlaidScenario(const FailureScenario& scenario) const {
  if (overlay_.NumDeadLinks() == 0) {
    return scenario;
  }
  FailureScenario overlaid = scenario;
  for (const LinkId link : overlay_.FailedLinks()) {
    LinkFailure failure;
    failure.link = link;
    failure.type = FailureType::kFullLoss;
    failure.loss_rate = 1.0;
    overlaid.failures.push_back(failure);
  }
  return overlaid;
}

// Switch and link churn on a PMC matrix — what the churn workload applies. Server churn
// (watchdog re-dispatch) and fixed-matrix entry withdrawal are DetectorSystem paths no
// workload takes, so they are rejected here rather than mirrored. Pinglist versions are not
// tracked: they never reach the probe plane or the results.
DetectorSystem::ChurnApplyResult TracedPipeline::ApplyTopologyDelta(const TopologyDelta& delta) {
  CHECK(incremental_ != nullptr) << "the traced pipeline repairs PMC matrices only";
  for (const NodeChurn& ev : delta.nodes) {
    CHECK(!topo_.IsServer(ev.node)) << "the traced pipeline does not mirror server churn";
  }
  ScopedSpan span(rec_, n_.delta);
  DetectorSystem::ChurnApplyResult out;
  LinkStateOverlay::Effect effect;
  {
    ScopedSpan s(rec_, n_.overlay);
    effect = overlay_.Apply(delta);
  }
  IncrementalPmc::DeltaOutcome outcome;
  {
    ScopedSpan s(rec_, n_.repair);
    const int64_t start = NowNs();
    outcome = incremental_->ApplyDelta(effect);
    counters_.repair_ms.push_back(static_cast<double>(NowNs() - start) * 1e-6);
  }
  counters_.touched_components += outcome.stats.touched_components;
  out.repair = outcome.stats;
  out.slots_vacated = outcome.removed_slots;
  if (!outcome.removed_slots.empty() || !outcome.added_slots.empty()) {
    ScopedSpan s(rec_, n_.render);
    matrix_ = incremental_->BuildMatrix();
    diagnoser_.InvalidateLocalizeCache();
    anomaly_engine_.Reset();
  }
  {
    ScopedSpan s(rec_, n_.controller);
    const PinglistUpdate update =
        controller_.UpdatePinglists(pinglists_, matrix_, watchdog_, outcome.removed_slots,
                                    outcome.added_slots, {}, {}, &path_index_);
    counters_.diff_entries +=
        static_cast<int64_t>(update.entries_removed + update.entries_added);
  }
  ++counters_.deltas;
  return out;
}

void TracedPipeline::RunSegment(const FailureScenario& scenario, double seconds, Rng& rng,
                                DetectorSystem::WindowResult& result) {
  std::unique_ptr<ProbeEngine> engine;
  {
    ScopedSpan s(rec_, n_.engine);
    engine = std::make_unique<ProbeEngine>(topo_, OverlaidScenario(scenario), options_.probe);
    if (options_.anomaly) {
      engine->AttachRttObservation(&latency_model_, {}, options_.rtt_samples_per_path,
                                   options_.rtt_bins);
    }
  }
  ObservationStore& store = diagnoser_.store();
  store.EnsureSlots(matrix_.NumPaths());
  const uint64_t window_seed = rng();
  const bool report = options_.report_plane;

  struct ShardWork {
    const Pinglist* list;
    ObservationStore::Shard* shard;
    Transport* transport;
    uint64_t seq;
    PingerTraffic traffic;
    ReportEmitterStats emitted;
    int64_t records;
  };
  std::vector<ShardWork> work;
  work.reserve(pinglists_.size());
  for (const Pinglist& list : pinglists_) {
    if (list.entries.empty()) {
      continue;
    }
    ShardWork w{&list, &store.OpenShard(list.pinger), nullptr, 0, {}, {}, 0};
    if (report) {
      w.transport = transports_[static_cast<size_t>(group_->RouteOf(list.pinger))].get();
      w.seq = report_seq_[list.pinger];
    }
    work.push_back(w);
  }

  std::atomic<size_t> shards_left{work.size()};
  auto run_shard = [&](size_t i) {
    ShardWork& w = work[i];
    PingerWindowResult probed;
    {
      ScopedSpan s(rec_, n_.probe);
      Rng shard_rng = ProbeEngine::ShardRng(window_seed, static_cast<uint64_t>(w.list->pinger));
      Pinger pinger(*w.list, options_.confirm_packets);
      probed = pinger.RunWindow(*engine, seconds, shard_rng, &watchdog_);
    }
    w.traffic = PingerTraffic{probed.probes_sent, probed.bytes_sent};
    if (report) {
      ScopedSpan s(rec_, n_.encode);
      ReportEmitter emitter(w.list->pinger, report_window_id_, w.seq, store.slot_epochs(),
                            *w.transport, options_.report_batch_entries, options_.report_key);
      for (const PathReport& r : probed.reports) {
        if (r.path_id == PinglistEntry::kIntraRackPath) {
          emitter.OnIntraRack(r.target, r.sent, r.lost);
        } else if (r.path_id >= 0) {
          emitter.OnPath(r.path_id, r.target, r.sent, r.lost);
          if (r.rtt.total() > 0) {
            emitter.OnPathRtt(r.path_id, r.target, r.rtt);
          }
        }
      }
      emitter.Flush();
      w.seq = emitter.next_seq();
      w.emitted = emitter.stats();
    } else {
      ScopedSpan s(rec_, n_.record);
      for (PathReport& r : probed.reports) {
        if (r.path_id == PinglistEntry::kIntraRackPath) {
          w.shard->RecordIntraRack(r.target, r.sent, r.lost);
        } else if (r.path_id >= 0) {
          if (r.rtt.total() > 0) {
            w.shard->RecordPathWithRtt(r.path_id, r.target, r.sent, r.lost, std::move(r.rtt));
          } else {
            w.shard->RecordPath(r.path_id, r.target, r.sent, r.lost);
          }
        } else {
          continue;
        }
        ++w.records;
      }
    }
    shards_left.fetch_sub(1, std::memory_order_release);
  };

  // DetectorSystem::RunSegment's schedule. In report mode the ingest task is submitted first
  // and holds one worker for the whole segment, pumping every collector while the others probe.
  const size_t threads = pool_ == nullptr ? 1 : pool_->num_threads();
  CHECK(!report || threads <= 2)
      << "the traced pipeline does not mirror the receive/drain ingest split of >= 3 threads";
  {
    ScopedSpan phase(rec_, n_.pool);
    const int64_t start = NowNs();
    if (threads <= 1 || work.size() <= 1) {
      for (size_t i = 0; i < work.size(); ++i) {
        run_shard(i);
      }
      const double wall = static_cast<double>(NowNs() - start);
      counters_.pool_busy_ns += wall;
      counters_.pool_capacity_ns += wall;
    } else {
      size_t ingest_workers = 0;
      if (report) {
        pool_->Submit([&] {
          tls_spans = rec_.worker_buffer(0);
          while (shards_left.load(std::memory_order_acquire) > 0) {
            size_t folded = 0;
            for (size_t c = 0; c < group_->num_collectors(); ++c) {
              ScopedSpan s(rec_, n_.decode_fold);
              const size_t n = group_->collector(c).PumpFrom(*transports_[c]);
              if (n == 0) {
                s.Discard();
              }
              folded += n;
            }
            if (folded == 0) {
              std::this_thread::yield();
            }
          }
          tls_spans = nullptr;
        });
        ingest_workers = 1;
      }
      const size_t tasks = std::min(threads - ingest_workers, work.size());
      std::vector<int64_t> busy(tasks, 0);
      std::atomic<size_t> next{0};
      for (size_t t = 0; t < tasks; ++t) {
        pool_->Submit([&, t] {
          tls_spans = rec_.worker_buffer(ingest_workers + t);
          for (size_t i = next.fetch_add(1); i < work.size(); i = next.fetch_add(1)) {
            const int64_t shard_start = NowNs();
            run_shard(i);
            busy[t] += NowNs() - shard_start;
          }
          tls_spans = nullptr;
        });
      }
      pool_->WaitAll();
      const double wall = static_cast<double>(NowNs() - start);
      int64_t max_busy = 0;
      int64_t sum_busy = 0;
      for (const int64_t b : busy) {
        max_busy = std::max(max_busy, b);
        sum_busy += b;
      }
      counters_.pool_wait_ns += wall - static_cast<double>(max_busy);
      counters_.pool_busy_ns += static_cast<double>(sum_busy);
      counters_.pool_capacity_ns += wall * static_cast<double>(threads);
    }
  }

  if (report) {
    // DetectorSystem::PumpReportBoundary: the ingest barrier folds everything sent before the
    // segment closes.
    counters_.frames_received = 0;
    for (size_t c = 0; c < group_->num_collectors(); ++c) {
      transports_[c]->Flush();
      {
        ScopedSpan s(rec_, n_.decode_fold);
        group_->collector(c).PumpFrom(*transports_[c]);
      }
      counters_.frames_received += static_cast<int64_t>(transports_[c]->stats().frames_received);
    }
  }
  for (const ShardWork& w : work) {
    result.probes_sent += w.traffic.probes_sent;
    result.bytes_sent += w.traffic.bytes_sent;
    counters_.store_records += w.records;
    counters_.frames_emitted += static_cast<int64_t>(w.emitted.frames_emitted);
    counters_.bytes_emitted += static_cast<int64_t>(w.emitted.bytes_emitted);
    counters_.observations_emitted += static_cast<int64_t>(w.emitted.observations_emitted);
    if (report) {
      report_seq_[w.list->pinger] = w.seq;
    }
  }
}

LocalizeResult TracedPipeline::DiagnoseBoundary() {
  ScopedSpan s(rec_, n_.pll);
  if (options_.streaming_view == StreamingViewMode::kSliding) {
    return diagnoser_.DiagnoseTrailing(matrix_, watchdog_);
  }
  return diagnoser_.DiagnoseRunning(matrix_, watchdog_);
}

DetectorSystem::StreamingWindowResult TracedPipeline::RunWindow(
    const FailureScenario& scenario, std::span<const ChurnEvent> churn, Rng& rng) {
  CHECK(scenario.episodes.empty()) << "the traced pipeline does not slice failure episodes";
  rec_.SetPosition(window_counter_, 0);
  ScopedSpan window_span(rec_, n_.window);
  DetectorSystem::StreamingWindowResult out;
  DetectorSystem::WindowResult& result = out.window;
  const int segments = std::max(1, options_.segments_per_window);
  const int cadence = std::max(1, options_.diagnose_every_segments);
  const double window = options_.window_seconds;
  const bool history = history_log_ != nullptr;
  if (history) {
    sealer_.BeginWindow(history_index_);
  }
  if (options_.anomaly) {
    anomaly_engine_.BeginWindow();
  }
  if (options_.report_plane) {
    PrepareReportFabric();
    ++report_window_id_;
    report_seq_.clear();
    group_->BeginWindow(report_window_id_);
  }

  ObservationStore& store = diagnoser_.store();
  auto observe_anomalies = [&] {
    ScopedSpan s(rec_, n_.anomaly);
    const ObservationView totals = store.RunningTotals(matrix_.NumPaths(), watchdog_);
    return anomaly_engine_.Observe(matrix_, totals, store.RttRunningTotals());
  };

  size_t next_event = 0;
  double t = 0.0;
  for (int seg = 1; seg <= segments; ++seg) {
    rec_.SetPosition(window_counter_, seg);
    const double boundary = seg == segments ? window : seg * (window / segments);
    while (next_event < churn.size() && churn[next_event].time_seconds < window &&
           churn[next_event].time_seconds < boundary) {
      const ChurnEvent& event = churn[next_event];
      if (event.time_seconds - t > 1e-9) {
        RunSegment(scenario, event.time_seconds - t, rng, result);
      }
      const DetectorSystem::ChurnApplyResult applied = ApplyTopologyDelta(event.delta);
      {
        ScopedSpan s(rec_, n_.invalidate);
        diagnoser_.DropReports(applied.slots_vacated);
      }
      ++result.churn_events_applied;
      t = std::max(t, event.time_seconds);
      ++next_event;
    }
    if (boundary - t > 1e-9) {
      RunSegment(scenario, boundary - t, rng, result);
      t = boundary;
    }
    if (options_.report_plane && seg < segments) {
      group_->AdvanceBoundary();
    }
    if (seg < segments) {
      {
        ScopedSpan s(rec_, n_.totals);
        store.RunningTotals(matrix_.NumPaths(), watchdog_);
      }
      {
        ScopedSpan s(rec_, n_.advance);
        diagnoser_.AdvanceSegment(matrix_, watchdog_);
      }
      if (seg % cadence == 0) {
        DetectorSystem::SegmentDiagnosis diagnosis;
        diagnosis.segment = seg;
        diagnosis.time_seconds = boundary;
        diagnosis.localization = DiagnoseBoundary();
        {
          ScopedSpan s(rec_, n_.alarms);
          diagnosis.server_link_alarms = diagnoser_.ServerLinkAlarms(watchdog_);
        }
        if (options_.anomaly) {
          diagnosis.anomalies = observe_anomalies();
        }
        if (history) {
          ScopedSpan s(rec_, n_.seal);
          sealer_.CutBoundary(seg, boundary, store.RunningTotals(matrix_.NumPaths(), watchdog_));
          sealer_.AttachDiagnosis(diagnosis.localization.links, diagnosis.server_link_alarms);
          sealer_.AttachAnomalies(diagnosis.anomalies);
        }
        out.timeline.push_back(std::move(diagnosis));
      }
    }
  }
  rec_.SetPosition(window_counter_, segments);
  {
    ScopedSpan s(rec_, n_.totals);
    store.RunningTotals(matrix_.NumPaths(), watchdog_);
  }
  {
    ScopedSpan s(rec_, n_.alarms);
    result.server_link_alarms = diagnoser_.ServerLinkAlarms(watchdog_);
  }
  if (options_.anomaly) {
    result.anomalies = observe_anomalies();
  }
  if (history) {
    ScopedSpan s(rec_, n_.seal);
    sealer_.CutBoundary(segments, window, store.RunningTotals(matrix_.NumPaths(), watchdog_));
  }
  {
    ScopedSpan s(rec_, n_.pll);
    result.localization = diagnoser_.Diagnose(matrix_, watchdog_);
  }
  result.detection_latency_seconds = options_.window_seconds;
  out.timeline.push_back(DetectorSystem::SegmentDiagnosis{
      segments, window, result.localization, result.server_link_alarms, result.anomalies});
  if (history) {
    SealedWindow sealed;
    {
      ScopedSpan s(rec_, n_.seal);
      sealer_.AttachDiagnosis(result.localization.links, result.server_link_alarms);
      sealer_.AttachAnomalies(result.anomalies);
      sealed = sealer_.Finish(matrix_.NumPaths(), result.churn_events_applied,
                              overlay_.NumDeadLinks(), result.probes_sent, result.bytes_sent);
    }
    {
      ScopedSpan s(rec_, n_.append);
      history_log_->Append(sealed);
    }
    ++history_index_;
  }
  ++window_counter_;
  return out;
}

}  // namespace perfbench
