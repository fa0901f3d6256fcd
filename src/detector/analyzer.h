// Analyzer: the diagnosis tier's window driver. A 30 s window (§3.2) closes the same way
// wherever it runs — in-process under DetectorSystem (direct and report-plane modes) and in the
// deployed collector processes (fleet_runner --role=collector). The Analyzer owns the
// window's Diagnoser, the anomaly plane's AnomalyEngine, the WindowSealer, and publishing to
// the on-disk WindowLog and an optional extra sink, and runs the three steps every analyzer
// takes:
//
//   OpenWindow        size the store, re-base the anomaly totals, and start the window's
//                     sealed record;
//   DiagnoseBoundary  a non-consuming mid-window boundary: localization over the streaming
//                     view, server-link alarms, anomalies, and the history delta cut;
//   CloseWindow       alarms; anomalies and the RTT capture; the delta cut; the consuming
//                     Diagnose(); attach; seal; publish.
//
// Observing and cutting must happen before Diagnose() clears the store; CloseWindow owns that
// order so no caller has to. Settings come from the DetectorSystemOptions the caller already
// builds (pll, streaming_view, sliding_window_segments, window_seconds, anomaly,
// anomaly_options, history_*, report_key), read once at construction.
#ifndef SRC_DETECTOR_ANALYZER_H_
#define SRC_DETECTOR_ANALYZER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/anomaly/anomaly_engine.h"
#include "src/detector/diagnoser.h"
#include "src/history/window_log.h"
#include "src/history/window_sink.h"
#include "src/report/collector.h"

namespace detector {

struct DetectorSystemOptions;
class UdpTransport;

// What one diagnosis boundary said.
struct WindowDiagnosis {
  LocalizeResult localization;
  std::vector<ServerLinkAlarm> server_link_alarms;
  std::vector<LinkAnomaly> anomalies;  // empty unless options.anomaly
};

// Pulls the next frame for a deployed collector into `frame`; false ends the stream.
using FrameSource = std::function<bool(std::vector<uint8_t>& frame)>;

// A UDP socket's frames until the reporters go quiet: once a frame has arrived, `idle_ms`
// without another ends the stream, and `listen_seconds` ends it regardless. `transport` must
// outlive the returned source.
FrameSource ReceiveUntilIdle(UdpTransport& transport, int idle_ms, double listen_seconds);

class Analyzer {
 public:
  // `matrix` and `watchdog` are read at every boundary and must outlive the analyzer. Opens
  // the window log when options.history_dir is set; appending to an existing log continues its
  // window numbering.
  Analyzer(const DetectorSystemOptions& options, const ProbeMatrix& matrix,
           const Watchdog& watchdog);
  // Serve hands `this` to the collector's flip hook.
  Analyzer(const Analyzer&) = delete;
  Analyzer& operator=(const Analyzer&) = delete;

  // The store the probe plane or a collector folds the window's observations into.
  Diagnoser& diagnoser() { return diagnoser_; }
  // The store's merged per-slot RTT sketches captured at the last CloseWindow, before
  // Diagnose cleared them (empty unless options.anomaly).
  std::span<const RttSketch> last_rtt_totals() const { return last_rtt_totals_; }

  // A caller-owned sink sealed windows are published to alongside the log (or alone).
  // Takes effect at the next OpenWindow.
  void set_sink(WindowSink* sink) { sink_ = sink; }
  const WindowLogWriter* history_log() const { return log_.get(); }
  // The next window's log index: the windows sealed so far, unless the caller numbers its
  // own windows.
  uint64_t windows_sealed() const { return next_index_; }

  // The probe matrix changed structurally (repair rewired slots, a cycle rebuilt it): drops
  // the cached PLL partitions and the anomaly baselines keyed to the old slot identities.
  void InvalidateSlots();

  // Opens the next window, logged under windows_sealed() — or under `index` for a caller
  // that numbers its own windows. Sizes the store to the matrix's slots.
  void OpenWindow();
  void OpenWindow(uint64_t index);

  // A mid-window boundary, after the caller's Diagnoser::AdvanceSegment: localizes over the
  // options' streaming view without consuming the window (the whole accumulated window, or
  // the trailing sliding_window_segments deltas), then judges server-link alarms and anomalies
  // at this serial point and cuts the history delta.
  WindowDiagnosis DiagnoseBoundary(int segment, double time_seconds);

  // Closes the window at its final boundary: runs the consuming Diagnose() and seals the
  // window with the given metadata.
  WindowDiagnosis CloseWindow(int segment, double time_seconds, uint64_t churn_events = 0,
                              uint64_t dead_links = 0, int64_t probes_sent = 0,
                              int64_t bytes_sent = 0);

  // The deployed collector's window loop, where frames flip windows. Opens window 1, folds
  // every frame `frames` yields into `collector` (built over diagnoser().store()), and when a
  // frame of a newer window flips the collector, closes the finished window and opens the
  // next; once the stream ends, closes the last window if any frame arrived. Every closed
  // window goes to `on_close` with its frame window id; the log indexes it as id - 1 past
  // windows_sealed() at entry, so a collector restarted over its log continues the numbering.
  void Serve(Collector& collector, const FrameSource& frames,
             const std::function<void(uint64_t window_id, const WindowDiagnosis&)>& on_close);

 private:
  ObservationView Totals();
  std::vector<LinkAnomaly> ObserveAnomalies();

  const ProbeMatrix& matrix_;
  const Watchdog& watchdog_;
  const bool anomaly_;
  const bool sliding_view_;  // boundaries localize over the trailing segments, not the window
  const double window_seconds_;
  Diagnoser diagnoser_;
  AnomalyEngine anomaly_engine_;
  std::vector<RttSketch> last_rtt_totals_;
  std::unique_ptr<WindowLogWriter> log_;
  WindowSink* sink_ = nullptr;
  WindowSealer sealer_;
  bool sealing_ = false;  // the open window publishes (a log or sink was attached at open)
  uint64_t next_index_ = 0;
};

}  // namespace detector

#endif  // SRC_DETECTOR_ANALYZER_H_
