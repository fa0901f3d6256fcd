// Queueing-based RTT model for the probe-overhead sensitivity experiment (Fig 4c/d): per-hop
// delay grows as base / (1 - utilization) (M/M/1-style), plus exponential jitter. Probe traffic
// adds utilization on the links it crosses, letting the bench show how (little) probing at
// 1..25 pps per pinger perturbs workload RTT and jitter.
#ifndef SRC_SIM_LATENCY_MODEL_H_
#define SRC_SIM_LATENCY_MODEL_H_

#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/topo/topology.h"

namespace detector {

struct LatencyModelOptions {
  double per_hop_base_us = 40.0;       // propagation + switching per link traversal
  double link_capacity_mbps = 1000.0;  // testbed used 1GbE ports
  double jitter_scale_us = 8.0;        // exponential jitter amplitude at zero load
  double max_utilization = 0.98;       // clamp to keep the M/M/1 term finite
};

class LatencyModel {
 public:
  explicit LatencyModel(LatencyModelOptions options) : options_(options) {}

  // One RTT sample (microseconds) along the path given per-link offered load (Mbps). An empty
  // load span means unloaded links: every hop's jitter then has the same scale, and the hops'
  // exponential jitters are summed as -scale * ln(prod(1 - U_i)) — one log over the same
  // uniforms, drawn in the same order, as the per-hop formula a zero-filled span takes
  // (their integer samples are pinned equal in tests/sim_test.cc).
  double SampleRttUs(std::span<const LinkId> links, std::span<const double> link_load_mbps,
                     Rng& rng) const;

  const LatencyModelOptions& options() const { return options_; }

 private:
  LatencyModelOptions options_;
};

}  // namespace detector

#endif  // SRC_SIM_LATENCY_MODEL_H_
