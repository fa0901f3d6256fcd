// TracedPipeline: the window driver of DetectorSystem::RunWindowImpl rebuilt from the library's
// public layer calls, with a span around each call. It drives the layers in the order
// DetectorSystem does:
//
//   Pinger (ProbeEngine::ShardRng streams)           sim.probe
//   ObservationStore shard writes / RunningTotals    detector.store.record / .totals
//   ReportEmitter -> Transport -> CollectorGroup     report.encode, net.send, net.recv,
//                                                    report.decode_fold
//   Diagnoser::AdvanceSegment / DiagnoseRunning /    detector.advance, localize.pll
//     DiagnoseTrailing / Diagnose
//   AnomalyEngine::Observe                           anomaly.observe
//   WindowSealer, WindowLogWriter::Append            history.seal, history.append
//   LinkStateOverlay -> IncrementalPmc ->            topo.overlay, pmc.repair, pmc.render,
//     Controller::UpdatePinglists                    detector.controller
//
// It covers the option subset the benchmark workloads use (direct or barriered report plane,
// cumulative or sliding view, mid-window churn, anomaly plane, window log) and must produce
// the same window-end suspect sets as DetectorSystem on the same inputs — the benchmark checks
// that before it trusts the per-layer numbers. The segment schedule is DetectorSystem's: in
// report mode an ingest task pumps the collectors on one pool worker while the others probe,
// then the ingest barrier folds the rest. One deliberate difference, outside the results:
// probing buffers each shard's reports (Pinger::RunWindow) and writes them to the store or
// emitter afterwards, so probe and write time separate.
#ifndef PERFBENCH_TRACED_PIPELINE_H_
#define PERFBENCH_TRACED_PIPELINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "perfbench/spans.h"
#include "src/common/thread_pool.h"
#include "src/detector/system.h"

namespace perfbench {

// Counters the traced run accumulates next to its spans.
struct TraceCounters {
  int64_t store_records = 0;       // path + intra-rack records written to store shards
  int64_t frames_emitted = 0;
  int64_t bytes_emitted = 0;
  int64_t observations_emitted = 0;
  int64_t frames_received = 0;     // handed out by the transports' Receive
  double pool_wait_ns = 0.0;       // per parallel phase: wall minus the busiest task slot
  double pool_busy_ns = 0.0;       // summed task-slot busy time
  double pool_capacity_ns = 0.0;   // threads x phase wall
  int64_t deltas = 0;
  int64_t touched_components = 0;
  int64_t diff_entries = 0;
  std::vector<double> repair_ms;   // IncrementalPmc::ApplyDelta per delta
  double pmc_build_s = 0.0;        // IncrementalPmc construction (PMC workloads only)
};

class TracedPipeline {
 public:
  // `provider` non-null: PMC matrix with incremental repair (like DetectorSystem's provider
  // constructor); null: the fixed `matrix`.
  TracedPipeline(const detector::Topology& topo, const detector::PathProvider* provider,
                 detector::ProbeMatrix matrix, const detector::DetectorSystemOptions& options,
                 SpanRecorder& recorder, detector::ThreadPool* pool);

  detector::DetectorSystem::StreamingWindowResult RunWindow(
      const detector::FailureScenario& scenario, std::span<const detector::ChurnEvent> churn,
      detector::Rng& rng);

  // Link/switch churn on a PMC matrix only (CHECK-fails otherwise). The result carries the
  // repair stats and the vacated slots.
  detector::DetectorSystem::ChurnApplyResult ApplyTopologyDelta(
      const detector::TopologyDelta& delta);

  const detector::ProbeMatrix& probe_matrix() const { return matrix_; }
  const TraceCounters& counters() const { return counters_; }
  const detector::CollectorGroup* collector_group() const { return group_.get(); }
  const detector::WindowLogWriter* history_log() const { return history_log_.get(); }

 private:
  void RunSegment(const detector::FailureScenario& scenario, double seconds, detector::Rng& rng,
                  detector::DetectorSystem::WindowResult& result);
  void PrepareReportFabric();
  detector::PartitionMap BuildReportPartition() const;
  detector::LocalizeResult DiagnoseBoundary();
  detector::FailureScenario OverlaidScenario(const detector::FailureScenario& scenario) const;

  const detector::Topology& topo_;
  detector::DetectorSystemOptions options_;
  SpanRecorder& rec_;
  detector::ThreadPool* pool_;  // null = serial shards
  std::unique_ptr<detector::IncrementalPmc> incremental_;
  detector::ProbeMatrix matrix_;
  detector::LinkStateOverlay overlay_;
  detector::Watchdog watchdog_;
  detector::Controller controller_;
  detector::Diagnoser diagnoser_;
  detector::LatencyModel latency_model_;
  detector::AnomalyEngine anomaly_engine_;
  std::vector<detector::Pinglist> pinglists_;
  detector::PathPingerIndex path_index_;

  std::vector<std::unique_ptr<detector::Transport>> transports_;
  std::unique_ptr<detector::CollectorGroup> group_;
  uint64_t report_window_id_ = 0;
  std::map<detector::NodeId, uint64_t> report_seq_;

  std::unique_ptr<detector::WindowLogWriter> history_log_;
  detector::WindowSealer sealer_;
  uint64_t history_index_ = 0;

  TraceCounters counters_;

  // Span names, registered once.
  struct Names {
    int window, pool, probe, record, totals, encode, send, recv, decode_fold, advance, pll,
        alarms, anomaly, seal, append, delta, overlay, repair, render, controller, invalidate,
        engine;
  } n_;
  int window_counter_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_PIPELINE_H_
