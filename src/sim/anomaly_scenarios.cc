#include "src/sim/anomaly_scenarios.h"

#include <vector>

#include "src/common/check.h"

namespace detector {

LinkId SampleMonitoredLink(const Topology& topo, Rng& rng) {
  std::vector<LinkId> monitored;
  monitored.reserve(topo.NumLinks());
  for (size_t i = 0; i < topo.NumLinks(); ++i) {
    if (topo.links()[i].monitored) {
      monitored.push_back(static_cast<LinkId>(i));
    }
  }
  CHECK(!monitored.empty()) << "topology has no monitored links";
  return monitored[rng.NextBounded(monitored.size())];
}

FailureScenario GrayLatencyScenario(LinkId link, double added_delay_us) {
  CHECK(added_delay_us > 0.0);
  FailureScenario scenario;
  LinkFailure failure;
  failure.link = link;
  failure.type = FailureType::kLatencyInflation;
  failure.loss_rate = 0.0;
  failure.added_delay_us = added_delay_us;
  scenario.failures.push_back(failure);
  return scenario;
}

}  // namespace detector
