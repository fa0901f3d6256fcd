// Scenario generators for the multi-signal anomaly plane: the gray latency inflation a link
// shows when it delivers every packet but adds fixed delay per traversal (the paper's §2
// delay-but-deliver gray failure) — zero loss signal, pure RTT — and the victim sampler.
#ifndef SRC_SIM_ANOMALY_SCENARIOS_H_
#define SRC_SIM_ANOMALY_SCENARIOS_H_

#include "src/common/rng.h"
#include "src/sim/failure_model.h"
#include "src/topo/topology.h"

namespace detector {

// Uniformly samples a monitored link — the "pick a victim" step of a scenario. Deterministic
// in `rng`.
LinkId SampleMonitoredLink(const Topology& topo, Rng& rng);

// Pure-latency gray failure: `added_delay_us` extra one-way delay per traversal of `link`,
// zero packet loss. The loss-only pipeline provably cannot see it (DropProbability is 0);
// only the RTT observation channel can.
FailureScenario GrayLatencyScenario(LinkId link, double added_delay_us);

}  // namespace detector

#endif  // SRC_SIM_ANOMALY_SCENARIOS_H_
