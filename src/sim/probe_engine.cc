#include "src/sim/probe_engine.h"

#include <algorithm>

namespace detector {

ProbeEngine::ProbeEngine(const Topology& topo, const FailureScenario& scenario,
                         ProbeConfig config)
    : topo_(topo), config_(config), failure_of_link_(topo.NumLinks(), -1) {
  // Same factors, same order as FlowSuccessProbability over healthy links, so every cached
  // loss is bit-equal to the per-flow product.
  healthy_draws_.resize(kCachedPathLinks + 1);
  double success = 1.0;
  for (size_t links = 0; links <= kCachedPathLinks; ++links) {
    if (links > 0) {
      success *= (1.0 - config_.base_loss_rate);
      success *= (1.0 - config_.base_loss_rate);
    }
    HealthyPathDraws& draws = healthy_draws_[links];
    draws.loss = 1.0 - success;
    if (draws.loss <= 0.0 || draws.loss >= 1.0) {
      continue;
    }
    for (int n = 1; n <= kCachedFlowPackets && !BinomialUsesLgamma(n, draws.loss); ++n) {
      draws.by_count.emplace_back(n, draws.loss);
    }
  }
  SetScenario(scenario);
}

void ProbeEngine::SetScenario(const FailureScenario& scenario) {
  for (const LinkFailure& failure : failures_) {
    failure_of_link_[static_cast<size_t>(failure.link)] = -1;
    if (!inflation_us_.empty()) {
      inflation_us_[static_cast<size_t>(failure.link)] = 0.0;
    }
  }
  failures_.clear();
  inflated_ = false;
  for (const LinkFailure& failure : scenario.failures) {
    CHECK(failure.link >= 0 && static_cast<size_t>(failure.link) < topo_.NumLinks());
    const size_t link = static_cast<size_t>(failure.link);
    // First failure wins if a scenario lists a link twice; semantically they overlap anyway.
    if (failure_of_link_[link] >= 0) {
      continue;
    }
    failure_of_link_[link] = static_cast<int32_t>(failures_.size());
    failures_.push_back(failure);
    if (failure.type == FailureType::kLatencyInflation && failure.added_delay_us > 0.0) {
      if (inflation_us_.empty()) {
        inflation_us_.assign(topo_.NumLinks(), 0.0);
      }
      inflation_us_[link] = failure.added_delay_us;
      inflated_ = true;
    }
  }
}

const ProbeEngine::HealthyPathDraws* ProbeEngine::HealthyDraws(std::span<const LinkId> links,
                                                               int max_flow_packets) const {
  if (links.size() > kCachedPathLinks) {
    return nullptr;
  }
  if (failures_active_ && !failures_.empty()) {
    for (const LinkId link : links) {
      if (failure_of_link_[static_cast<size_t>(link)] >= 0) {
        return nullptr;
      }
    }
  }
  const HealthyPathDraws& draws = healthy_draws_[links.size()];
  if (!draws.by_count.empty() && static_cast<size_t>(max_flow_packets) > draws.by_count.size()) {
    return nullptr;
  }
  return &draws;
}

double ProbeEngine::LinkDropProbability(LinkId link, const FlowKey& flow) const {
  double drop = config_.base_loss_rate;
  if (failures_active_) {
    const int32_t f = failure_of_link_[static_cast<size_t>(link)];
    if (f >= 0) {
      const double failure_drop = failures_[static_cast<size_t>(f)].DropProbability(flow);
      drop = 1.0 - (1.0 - drop) * (1.0 - failure_drop);
    }
  }
  return drop;
}

double ProbeEngine::FlowSuccessProbability(std::span<const LinkId> links,
                                           const FlowKey& flow) const {
  const FlowKey reply = ReverseFlow(flow);
  double success = 1.0;
  for (LinkId link : links) {
    success *= (1.0 - LinkDropProbability(link, flow));
    success *= (1.0 - LinkDropProbability(link, reply));
  }
  return success;
}

void ProbeEngine::AttachRttObservation(const LatencyModel* model,
                                       std::span<const double> link_load_mbps,
                                       int samples_per_path, int sketch_bins) {
  CHECK(model != nullptr);
  CHECK(samples_per_path > 0);
  CHECK(link_load_mbps.empty() || link_load_mbps.size() == topo_.NumLinks());
  rtt_model_ = model;
  // Kept empty for unloaded links, so every sample takes the model's one-log draw.
  rtt_link_load_mbps_.assign(link_load_mbps.begin(), link_load_mbps.end());
  rtt_samples_per_path_ = samples_per_path;
  rtt_sketch_bins_ = sketch_bins;
}

double ProbeEngine::OneWaySuccessProbability(std::span<const LinkId> links,
                                             const FlowKey& flow) const {
  double success = 1.0;
  for (LinkId link : links) {
    success *= (1.0 - LinkDropProbability(link, flow));
  }
  return success;
}

PathObservation ProbeEngine::SimulateFlow(std::span<const LinkId> links, const FlowKey& flow,
                                          int packets, Rng& rng) const {
  PathObservation obs;
  obs.sent = packets;
  if (packets > 0) {
    obs.lost = rng.NextBinomial(packets, 1.0 - FlowSuccessProbability(links, flow));
  }
  return obs;
}

PathObservation ProbeEngine::SimulatePath(std::span<const LinkId> links, NodeId src, NodeId dst,
                                          int packets, Rng& rng, RttSketch* rtt) const {
  PathObservation obs;
  obs.sent = packets;
  if (packets <= 0) {
    return obs;
  }
  const int ports = std::max(1, config_.port_count);
  const int base = packets / ports;
  const int remainder = packets % ports;
  const HealthyPathDraws* healthy = HealthyDraws(links, base + (remainder > 0 ? 1 : 0));
  for (int p = 0; p < ports; ++p) {
    const int n = base + (p < remainder ? 1 : 0);
    if (n == 0) {
      continue;
    }
    if (healthy != nullptr) {
      obs.lost += healthy->Draw(n, rng);
      continue;
    }
    FlowKey flow;
    flow.src = src;
    flow.dst = dst;
    flow.src_port = static_cast<uint16_t>(config_.src_port_base + p);
    flow.dst_port = config_.dst_port;
    obs.lost += SimulateFlow(links, flow, n, rng).lost;
  }
  if (rtt_model_ != nullptr && rtt != nullptr && obs.lost < obs.sent) {
    // RTT samples draw from the same stream *after* every loss draw, so enabling observation
    // never perturbs the loss trajectory of a run without it.
    double inflation = 0.0;
    if (failures_active_ && inflated_) {
      for (LinkId link : links) {
        // Round trip: the link's extra delay is paid in both directions.
        inflation += 2.0 * inflation_us_[static_cast<size_t>(link)];
      }
    }
    const int64_t survivors = obs.sent - obs.lost;
    const int64_t samples = std::min<int64_t>(survivors, rtt_samples_per_path_);
    for (int64_t i = 0; i < samples; ++i) {
      const double sample = rtt_model_->SampleRttUs(links, rtt_link_load_mbps_, rng) + inflation;
      rtt->Record(static_cast<int64_t>(sample));
    }
  }
  return obs;
}

bool ProbeEngine::SimulatePacket(std::span<const LinkId> links, const FlowKey& flow, Rng& rng,
                                 LinkId* dropped_link) const {
  // Request leg...
  for (LinkId link : links) {
    if (rng.NextBernoulli(LinkDropProbability(link, flow))) {
      if (dropped_link != nullptr) {
        *dropped_link = link;
      }
      return false;
    }
  }
  // ...then the reply leg in reverse with the reply flow.
  const FlowKey reply = ReverseFlow(flow);
  for (size_t i = links.size(); i-- > 0;) {
    if (rng.NextBernoulli(LinkDropProbability(links[i], reply))) {
      if (dropped_link != nullptr) {
        *dropped_link = links[i];
      }
      return false;
    }
  }
  if (dropped_link != nullptr) {
    *dropped_link = kInvalidLink;
  }
  return true;
}

}  // namespace detector
