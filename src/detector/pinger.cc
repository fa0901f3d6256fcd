#include "src/detector/pinger.h"

#include <algorithm>

#include "src/report/emitter.h"

namespace detector {

namespace {

// Intra-rack entries towards a watchdog-flagged server are skipped at execution time. Server
// churn dispatched through UpdatePinglists removes such entries from the standing pinglists
// outright; this probe-time skip is defense-in-depth for servers flagged outside the delta
// flow (e.g. a watchdog MarkDown with no topology delta) — probing a downed server only burns
// budget and records counters the diagnoser would discard anyway. Matrix entries are not
// filtered here — server churn re-dispatches them off downed endpoints through
// UpdatePinglists.
bool EntryEligible(const PinglistEntry& entry, const Watchdog* watchdog) {
  return entry.path_id != PinglistEntry::kIntraRackPath || watchdog == nullptr ||
         watchdog->IsHealthy(entry.target_server);
}

}  // namespace

template <typename Sink>
PingerTraffic Pinger::RunEntries(const ProbeEngine& engine, double window_seconds, Rng& rng,
                                 const Watchdog* watchdog, Sink&& sink) const {
  PingerTraffic traffic;
  int64_t eligible = 0;
  for (const PinglistEntry& entry : pinglist_.entries) {
    eligible += EntryEligible(entry, watchdog) ? 1 : 0;
  }
  if (eligible == 0) {
    return traffic;
  }
  const int64_t budget =
      std::max<int64_t>(1, static_cast<int64_t>(pinglist_.packets_per_second * window_seconds));
  const int64_t per_entry = std::max<int64_t>(1, budget / eligible);
  // When filtering skipped entries, their budget share is redistributed over the live ones;
  // the integer split truncates, so the remainder goes one extra packet at a time to the
  // first eligible entries in pinglist order. The assignment depends only on this pinglist's
  // own entry order — never on shard scheduling or thread count, which the 1/2/8-thread
  // bit-exactness oracle in tests/parallel_window_test.cc covers with filtering active.
  const bool redistributing = eligible < static_cast<int64_t>(pinglist_.entries.size());
  const int64_t extra_packets =
      redistributing ? std::max<int64_t>(0, budget - per_entry * eligible) : 0;

  // One RTT scratch for the whole shard: each sampled entry records into it from zero, and
  // the sink copies the bins out before the next entry.
  RttSketch rtt;
  if (engine.rtt_observation()) {
    rtt = RttSketch(engine.rtt_sketch_bins());
    // At most one bin per sample, over the probe draw and a confirmation draw.
    rtt.Reserve(2 * engine.rtt_samples_per_path());
  }

  int64_t eligible_index = 0;
  for (const PinglistEntry& entry : pinglist_.entries) {
    if (!EntryEligible(entry, watchdog)) {
      continue;
    }
    const int64_t packets = per_entry + (eligible_index < extra_packets ? 1 : 0);
    ++eligible_index;
    // Matrix entries sample RTTs when the engine observes them; intra-rack probes stay
    // loss-only (the anomaly plane runs over the probe matrix).
    const bool sample_rtt = engine.rtt_observation() && entry.path_id >= 0;
    if (sample_rtt) {
      rtt.ClearCounts();
    }
    RttSketch* rtt_ptr = sample_rtt ? &rtt : nullptr;
    PathObservation obs = engine.SimulatePath(entry.route, pinglist_.pinger,
                                              entry.target_server,
                                              static_cast<int>(packets), rng, rtt_ptr);
    if (obs.lost > 0 && confirm_packets_ > 0) {
      // Confirm the loss pattern with extra probes of the same content (§3.1).
      const PathObservation confirm = engine.SimulatePath(
          entry.route, pinglist_.pinger, entry.target_server, confirm_packets_, rng, rtt_ptr);
      obs.sent += confirm.sent;
      obs.lost += confirm.lost;
    }
    traffic.probes_sent += obs.sent;
    traffic.bytes_sent += obs.sent * engine.config().probe_bytes * 2;  // request + echo
    sink(entry.path_id, entry.target_server, obs.sent, obs.lost,
         sample_rtt && rtt.total() > 0 ? &rtt : nullptr);
  }
  return traffic;
}

PingerWindowResult Pinger::RunWindow(const ProbeEngine& engine, double window_seconds,
                                     Rng& rng, const Watchdog* watchdog) const {
  PingerWindowResult result;
  result.pinger = pinglist_.pinger;
  result.reports.reserve(pinglist_.entries.size());
  const PingerTraffic traffic = RunEntries(
      engine, window_seconds, rng, watchdog,
      [&](PathId path_id, NodeId target, int64_t sent, int64_t lost, const RttSketch* rtt) {
        result.reports.push_back(
            PathReport{path_id, target, sent, lost, rtt != nullptr ? *rtt : RttSketch{}});
      });
  result.probes_sent = traffic.probes_sent;
  result.bytes_sent = traffic.bytes_sent;
  return result;
}

PingerTraffic Pinger::RunWindowInto(const ProbeEngine& engine, double window_seconds, Rng& rng,
                                    ObservationStore::Shard& shard,
                                    const Watchdog* watchdog) const {
  return RunEntries(
      engine, window_seconds, rng, watchdog,
      [&](PathId path_id, NodeId target, int64_t sent, int64_t lost, const RttSketch* rtt) {
        if (path_id == PinglistEntry::kIntraRackPath) {
          shard.RecordIntraRack(target, sent, lost);
        } else if (path_id >= 0) {
          // Other negative ids (a corrupt wire pinglist) are dropped, matching
          // Diagnoser::Ingest.
          if (rtt != nullptr) {
            shard.RecordPathWithRtt(path_id, target, sent, lost, *rtt);
          } else {
            shard.RecordPath(path_id, target, sent, lost);
          }
        }
      });
}

PingerTraffic Pinger::RunWindowTo(const ProbeEngine& engine, double window_seconds, Rng& rng,
                                  ReportEmitter& emitter, const Watchdog* watchdog) const {
  return RunEntries(
      engine, window_seconds, rng, watchdog,
      [&](PathId path_id, NodeId target, int64_t sent, int64_t lost, const RttSketch* rtt) {
        if (path_id == PinglistEntry::kIntraRackPath) {
          emitter.OnIntraRack(target, sent, lost);
        } else if (path_id >= 0) {
          emitter.OnPath(path_id, target, sent, lost);
          if (rtt != nullptr) {
            emitter.OnPathRtt(path_id, target, *rtt);
          }
        }
      });
}

}  // namespace detector
