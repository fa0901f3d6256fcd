// Churn scenario generation: timed sequences of link/node up, down and drain events, so the
// simulator can exercise a long-running monitor under continuous topology change (device and
// link up-down events, §3.1) rather than a single static failure scenario per window.
//
// Arrivals are Poisson (independently for link and node churn); each down/drain draws an
// exponential outage duration and schedules the paired recovery (up/undrain) event, so a
// sampled trace is self-restoring: applying every event in order returns the overlay to its
// initial state. Failed links are weighted by tier like the failure model (Gill'11: agg links
// fail most), drains are uniform (maintenance does not favor a tier).
#ifndef SRC_SIM_CHURN_H_
#define SRC_SIM_CHURN_H_

#include <array>
#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/topo/delta.h"
#include "src/topo/topology.h"

namespace detector {

struct ChurnEvent {
  double time_seconds = 0.0;
  TopologyDelta delta;
};

struct ChurnOptions {
  double link_events_per_minute = 2.0;   // Poisson rate of link down/drain arrivals
  double node_events_per_minute = 0.2;   // Poisson rate of switch down arrivals
  double drain_fraction = 0.25;          // link events that are drains (maintenance), not failures
  double mean_outage_seconds = 20.0;     // exponential mean until the paired recovery event
  // Tier weights for failed links, as in FailureModelOptions (0 = server/level-0 links).
  std::array<double, 3> tier_weights = {0.2, 0.5, 0.3};
  bool monitored_links_only = true;
  // Node events pick uniformly among these switch kinds (servers are watchdog territory).
  std::vector<NodeKind> node_kinds = {NodeKind::kTor, NodeKind::kAgg, NodeKind::kCore};
};

class ChurnGenerator {
 public:
  ChurnGenerator(const Topology& topo, ChurnOptions options);

  // Samples a trace covering [0, duration). Paired recovery events are included even when they
  // land beyond `duration`, so the trace always restores the topology; events are sorted by
  // time, and no two outages of the same link/node overlap. Deterministic given the rng state.
  std::vector<ChurnEvent> Sample(double duration_seconds, Rng& rng) const;

  const Topology& topology() const { return topo_; }

 private:
  LinkId SampleLink(Rng& rng) const;

  const Topology& topo_;
  ChurnOptions options_;
  std::vector<LinkId> eligible_links_;
  std::vector<double> cumulative_weight_;  // parallel to eligible_links_
  std::vector<NodeId> eligible_nodes_;
};

// Events of `trace` with start <= time < end, rebased to window-relative times (time - start).
// DetectorSystem::RunWindowStreaming interprets event times relative to the window it runs, so
// a long trace driving consecutive windows must be sliced: window k of length W gets
// WindowSlice(trace, k * W, (k + 1) * W). Recovery events landing after the last window are
// simply dropped by the caller's final slice — apply them directly if restoring matters.
std::vector<ChurnEvent> WindowSlice(std::span<const ChurnEvent> trace, double start_seconds,
                                    double end_seconds);

}  // namespace detector

#endif  // SRC_SIM_CHURN_H_
