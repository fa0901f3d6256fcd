#include "src/detector/analyzer.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/detector/system.h"
#include "src/net/udp.h"

namespace detector {

FrameSource ReceiveUntilIdle(UdpTransport& transport, int idle_ms, double listen_seconds) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  return [&transport, idle_ms, listen_seconds, start, last_activity = start,
          any_frames = false](std::vector<uint8_t>& frame) mutable {
    for (;;) {
      if (transport.ReceiveTimeout(frame, 200)) {
        last_activity = Clock::now();
        any_frames = true;
        return true;
      }
      const Clock::time_point now = Clock::now();
      if (any_frames &&
          std::chrono::duration<double, std::milli>(now - last_activity).count() > idle_ms) {
        return false;  // the reporters went quiet
      }
      if (std::chrono::duration<double>(now - start).count() > listen_seconds) {
        return false;
      }
    }
  };
}

Analyzer::Analyzer(const DetectorSystemOptions& options, const ProbeMatrix& matrix,
                   const Watchdog& watchdog)
    : matrix_(matrix),
      watchdog_(watchdog),
      anomaly_(options.anomaly),
      sliding_view_(options.streaming_view == StreamingViewMode::kSliding),
      window_seconds_(options.window_seconds),
      diagnoser_(options.pll),
      anomaly_engine_(options.anomaly_options) {
  // The sliding ring costs O(changed slots) per segment boundary, so only the sliding view
  // keeps one.
  diagnoser_.set_sliding_segments(sliding_view_ ? std::max(1, options.sliding_window_segments)
                                                : 0);
  if (options.history_dir.empty()) {
    return;
  }
  WindowLogOptions log_options;
  log_options.max_records_per_segment = options.history_segment_records;
  log_options.max_segments = options.history_max_segments;
  log_options.key = options.report_key;
  log_ = std::make_unique<WindowLogWriter>(options.history_dir, log_options);
  // Appending after a reopened log continues its numbering — the on-disk indices stay
  // monotonic, which the query plane's episode logic relies on.
  if (log_->ok()) {
    const WindowLogReadResult existing = ReadWindowLog(options.history_dir, options.report_key);
    if (!existing.windows.empty()) {
      next_index_ = existing.windows.back().window_index + 1;
    }
  }
}

void Analyzer::InvalidateSlots() {
  diagnoser_.InvalidateLocalizeCache();
  anomaly_engine_.Reset();
}

void Analyzer::OpenWindow(uint64_t index) {
  next_index_ = index;
  OpenWindow();
}

void Analyzer::OpenWindow() {
  diagnoser_.store().EnsureSlots(matrix_.NumPaths());
  // Retention: with a sink attached, every diagnosis boundary cuts a sparse delta of the
  // merged running totals, so the log carries exactly the views the live diagnoses localized
  // over (what makes QueryEngine replay bit-identical).
  sealing_ = log_ != nullptr || sink_ != nullptr;
  if (sealing_) {
    sealer_.BeginWindow(next_index_);
  }
  if (anomaly_) {
    // Re-base the engine's per-slot totals at zero — the store cleared at the last window's
    // Diagnose — without touching the learned baselines or excursion runs.
    anomaly_engine_.BeginWindow();
  }
}

ObservationView Analyzer::Totals() {
  // Idempotent at a serial point: whatever read the store first already folded the pending
  // records, so every caller of one boundary sees the same totals.
  return diagnoser_.store().RunningTotals(matrix_.NumPaths(), watchdog_);
}

std::vector<LinkAnomaly> Analyzer::ObserveAnomalies() {
  const ObservationView totals = Totals();
  return anomaly_engine_.Observe(matrix_, totals, diagnoser_.store().RttRunningTotals());
}

WindowDiagnosis Analyzer::DiagnoseBoundary(int segment, double time_seconds) {
  WindowDiagnosis out;
  out.localization = sliding_view_ ? diagnoser_.DiagnoseTrailing(matrix_, watchdog_)
                                   : diagnoser_.DiagnoseRunning(matrix_, watchdog_);
  out.server_link_alarms = diagnoser_.ServerLinkAlarms(watchdog_);
  if (anomaly_) {
    out.anomalies = ObserveAnomalies();
  }
  if (sealing_) {
    sealer_.CutBoundary(segment, time_seconds, Totals());
    sealer_.AttachDiagnosis(out.localization.links, out.server_link_alarms);
    sealer_.AttachAnomalies(out.anomalies);
  }
  return out;
}

WindowDiagnosis Analyzer::CloseWindow(int segment, double time_seconds, uint64_t churn_events,
                                      uint64_t dead_links, int64_t probes_sent,
                                      int64_t bytes_sent) {
  WindowDiagnosis out;
  out.server_link_alarms = diagnoser_.ServerLinkAlarms(watchdog_);
  if (anomaly_) {
    // The window-end anomaly boundary and the RTT capture (the bit-identity surface the
    // thread-count and report-vs-direct gates compare) both read the store before Diagnose()
    // consumes it, like the history cut below.
    out.anomalies = ObserveAnomalies();
    const std::span<const RttSketch> rtt = diagnoser_.store().RttRunningTotals();
    last_rtt_totals_.assign(rtt.begin(), rtt.end());
  } else {
    last_rtt_totals_.clear();
  }
  if (sealing_) {
    sealer_.CutBoundary(segment, time_seconds, Totals());
  }
  out.localization = diagnoser_.Diagnose(matrix_, watchdog_);
  if (sealing_) {
    sealer_.AttachDiagnosis(out.localization.links, out.server_link_alarms);
    sealer_.AttachAnomalies(out.anomalies);
    const SealedWindow sealed =
        sealer_.Finish(matrix_.NumPaths(), churn_events, dead_links, probes_sent, bytes_sent);
    if (log_ != nullptr) {
      log_->OnWindowSealed(sealed);
    }
    if (sink_ != nullptr) {
      sink_->OnWindowSealed(sealed);
    }
    ++next_index_;
  }
  return out;
}

void Analyzer::Serve(
    Collector& collector, const FrameSource& frames,
    const std::function<void(uint64_t window_id, const WindowDiagnosis&)>& on_close) {
  // Frame window ids restart at 1 with every agent fleet; the log's numbering continues
  // after whatever a reopened log already holds.
  const uint64_t first_index = windows_sealed();
  collector.BeginWindow(1);
  OpenWindow(first_index);
  // Runs when a frame of a newer window arrives, before the collector moves to `opened`.
  collector.set_on_window_advance([&](uint64_t closed, uint64_t opened) {
    on_close(closed, CloseWindow(1, window_seconds_));
    OpenWindow(first_index + opened - 1);
  });
  bool any_frames = false;
  for (;;) {
    std::vector<uint8_t> frame;
    if (!frames(frame)) {
      break;
    }
    collector.Offer(frame);
    any_frames = true;
  }
  collector.set_on_window_advance(nullptr);
  if (any_frames) {
    on_close(collector.current_window(), CloseWindow(1, window_seconds_));
  }
}

}  // namespace detector
