// Pinger (§3.1, §6.1): loops over its pinglist at a configured rate, cycling source ports for
// packet entropy, confirms each observed loss with two extra probes of the same content, and
// aggregates (sent, lost) per path into a 30-second report for the diagnoser.
//
// Two execution modes: RunWindow returns the classic monolithic end-of-window report;
// RunWindowInto streams each entry's counters into an ObservationStore shard as they are
// produced, which is what the sharded probe-plane runtime uses — one pinger per shard, each on
// its own deterministic RNG stream (ProbeEngine::ShardRng).
#ifndef SRC_DETECTOR_PINGER_H_
#define SRC_DETECTOR_PINGER_H_

#include <vector>

#include "src/detector/observation_store.h"
#include "src/detector/pinglist.h"
#include "src/localize/observations.h"
#include "src/sim/probe_engine.h"
#include "src/sim/watchdog.h"

namespace detector {

struct PathReport {
  PathId path_id = -1;  // PinglistEntry::kIntraRackPath for intra-rack probes
  NodeId target = kInvalidNode;
  int64_t sent = 0;
  int64_t lost = 0;
  // RTT sample sketch for this entry's probes; empty unless the engine has RTT observation
  // attached and the entry had surviving probes (intra-rack entries never carry one).
  RttSketch rtt;
};

struct PingerWindowResult {
  NodeId pinger = kInvalidNode;
  std::vector<PathReport> reports;
  int64_t probes_sent = 0;  // round trips, including confirmation probes
  int64_t bytes_sent = 0;
};

// Traffic accounting of one shard's window execution (the observations themselves stream into
// the ObservationStore).
struct PingerTraffic {
  int64_t probes_sent = 0;
  int64_t bytes_sent = 0;
};

class ReportEmitter;

// A pinger is a view over its pinglist: the caller keeps the pinglist alive and unchanged
// while the pinger runs (pinglists change only at serial points, so concurrent shards share
// them without a copy). A temporary pinglist does not bind.
class Pinger {
 public:
  explicit Pinger(const Pinglist& pinglist, int confirm_packets = 2)
      : pinglist_(pinglist), confirm_packets_(confirm_packets) {}
  Pinger(const Pinglist&& pinglist, int confirm_packets = 2) = delete;

  // Executes one aggregation window: the packet budget (pps x seconds) is spread round-robin
  // over the pinglist entries. With a watchdog, intra-rack entries targeting flagged servers
  // are skipped (defense-in-depth: churn deltas remove such entries from standing pinglists,
  // this covers servers flagged outside the delta flow) — a downed server draws no probes and
  // records no counters, and the skipped entries' budget share, remainder included, is
  // redistributed deterministically over the live ones in entry order.
  PingerWindowResult RunWindow(const ProbeEngine& engine, double window_seconds, Rng& rng,
                               const Watchdog* watchdog = nullptr) const;

  // Same window, streamed: each entry's counters land in `shard` the moment they are measured.
  // The shard must belong to this pinger and be written by no other thread. The watchdog, when
  // given, filters intra-rack entries as in RunWindow (it is only read, so concurrent shards
  // may share one instance between serial phases).
  PingerTraffic RunWindowInto(const ProbeEngine& engine, double window_seconds, Rng& rng,
                              ObservationStore::Shard& shard,
                              const Watchdog* watchdog = nullptr) const;

  // Same window, streamed into a report emitter instead of a local shard — the report-plane
  // execution mode, where counters leave the pinger as encoded wire frames. Calls reach the
  // emitter in pinglist-entry order from the thread running the window. Identical probe
  // trajectory to RunWindowInto on the same rng (both run the same entry loop), so the two
  // modes are bit-identical when every report is delivered.
  PingerTraffic RunWindowTo(const ProbeEngine& engine, double window_seconds, Rng& rng,
                            ReportEmitter& emitter, const Watchdog* watchdog = nullptr) const;

  const Pinglist& pinglist() const { return pinglist_; }

 private:
  // Shared core: runs every eligible entry and hands (path_id, target, sent, lost, rtt) to
  // `sink`; rtt is null unless the engine samples RTTs and the entry's sketch is non-empty.
  // The sketch is the shard's one scratch, valid only for the call: the sink copies what it
  // keeps.
  template <typename Sink>
  PingerTraffic RunEntries(const ProbeEngine& engine, double window_seconds, Rng& rng,
                           const Watchdog* watchdog, Sink&& sink) const;

  const Pinglist& pinglist_;
  int confirm_packets_;
};

}  // namespace detector

#endif  // SRC_DETECTOR_PINGER_H_
