#include "src/sim/latency_model.h"

#include <algorithm>
#include <cmath>

namespace detector {

double LatencyModel::SampleRttUs(std::span<const LinkId> links,
                                 std::span<const double> link_load_mbps, Rng& rng) const {
  if (link_load_mbps.empty()) {
    double survival = 1.0;
    for (size_t hop = 0; hop < links.size(); ++hop) {
      survival *= 1.0 - rng.NextDouble();
    }
    const double hops = static_cast<double>(links.size());
    // Round trip: both directions of every link.
    return 2.0 * (hops * options_.per_hop_base_us - options_.jitter_scale_us * std::log(survival));
  }
  double rtt = 0.0;
  for (LinkId link : links) {
    const double rho = std::min(options_.max_utilization,
                                link_load_mbps[static_cast<size_t>(link)] /
                                    options_.link_capacity_mbps);
    const double hop = options_.per_hop_base_us / (1.0 - rho);
    const double jitter = -options_.jitter_scale_us / (1.0 - rho) * std::log1p(-rng.NextDouble());
    // Round trip: both directions of the link.
    rtt += 2.0 * (hop + jitter);
  }
  return rtt;
}

}  // namespace detector
