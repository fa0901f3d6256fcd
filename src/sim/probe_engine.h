// Probe simulation engine. Replaces the paper's 20-switch SDN testbed: given a failure scenario
// it produces per-path (sent, lost) counters with the same loss semantics the testbed's
// OpenFlow drop rules implement.
//
// Two modes:
//  - SimulatePath (fast): per-flow round-trip success probabilities are computed analytically
//    and losses drawn binomially — used for the large sweeps (Tables 4/5, Figs 5/6).
//  - SimulatePacket (exact): one packet with an explicit flow key walks the path and every
//    traversal rolls its own drop; returns the dropping link — used by tests, the packet-level
//    examples and the fbtracert emulation (which needs to know *where* a packet died).
//
// Every probe is a round trip: each path link is traversed once with the request flow and once
// with the reply flow (ports swapped). Healthy links still drop at base_loss_rate, producing
// the ambient 1e-4..1e-5 noise the pre-processing stage must filter (§5.1).
#ifndef SRC_SIM_PROBE_ENGINE_H_
#define SRC_SIM_PROBE_ENGINE_H_

#include <span>
#include <vector>

#include "src/anomaly/rtt_sketch.h"
#include "src/common/rng.h"
#include "src/localize/observations.h"
#include "src/routing/ecmp.h"
#include "src/sim/failure_model.h"
#include "src/sim/latency_model.h"
#include "src/topo/topology.h"

namespace detector {

struct ProbeConfig {
  // Port entropy: each probe cycles through this many source ports (the paper loops over a
  // port range per path so blackholes that match only some headers are still exposed).
  int port_count = 8;
  uint16_t src_port_base = 33434;
  uint16_t dst_port = 31000;
  double base_loss_rate = 1e-5;  // ambient per-traversal loss on healthy links
  int probe_bytes = 850;         // average probe size (§6.1), for bandwidth accounting
};

class ProbeEngine {
 public:
  ProbeEngine(const Topology& topo, const FailureScenario& scenario, ProbeConfig config);

  // Re-arms the engine for another scenario, as if built anew with it: the previous
  // scenario's per-link entries are cleared (O(its failures), not O(links)) and the new
  // failures applied. The first failure listed for a link wins — a switch-down overlapping a
  // link failure, or an overlay's dead link appended after the scenario's own failure of it
  // (DetectorSystem::OverlaidScenario). The healthy-path cache, the RTT observation and
  // failures_active() are kept. Not thread-safe: call it where no shard is probing.
  void SetScenario(const FailureScenario& scenario);

  // Shard API: the engine is read-only while shards probe, so one instance serves any number
  // of concurrent pinger shards; each shard draws from its own RNG stream derived here. Keying by
  // a stable shard identity (the pinger's node id) rather than the shard's position makes the
  // streams invariant to scheduling order and thread count — a window executed over N threads
  // is bit-identical to the same window executed serially.
  static uint64_t ShardSeed(uint64_t window_seed, uint64_t shard_key) {
    return HashCombine(window_seed, shard_key);
  }
  static Rng ShardRng(uint64_t window_seed, uint64_t shard_key) {
    return Rng(ShardSeed(window_seed, shard_key));
  }

  // `active` toggles the scenario's failures (false = healthy network, e.g. a playback window
  // after a transient failure cleared).
  void SetFailuresActive(bool active) { failures_active_ = active; }
  bool failures_active() const { return failures_active_; }

  // Fast mode: `packets` probes between src/dst along the given links, spread evenly over the
  // port loop. Returns sent/lost. With RTT observation attached and `rtt` non-null, samples
  // the RTT of up to rtt_samples_per_path() surviving probes into the sketch (drawn from the
  // same `rng` stream, after the loss draws, so loss trajectories with observation disabled
  // are untouched). Links under a kLatencyInflation failure add their extra delay to every
  // sample — the gray-failure signal. Each port's loss draw equals SimulateFlow's for that
  // port's flow; a path whose links carry no active failure draws from the healthy-path cache
  // (see HealthyPathDraws) instead of recomputing the same product per flow.
  PathObservation SimulatePath(std::span<const LinkId> links, NodeId src, NodeId dst,
                               int packets, Rng& rng, RttSketch* rtt = nullptr) const;

  // Fast mode for a single fixed flow (one 5-tuple, no port loop) — the baselines' ECMP probes
  // ride one hash per port, each on its own route.
  PathObservation SimulateFlow(std::span<const LinkId> links, const FlowKey& flow, int packets,
                               Rng& rng) const;

  // Exact mode: simulates one packet round trip; returns true on success. When `dropped_link`
  // is non-null and the packet died, stores the culprit link.
  bool SimulatePacket(std::span<const LinkId> links, const FlowKey& flow, Rng& rng,
                      LinkId* dropped_link = nullptr) const;

  // Round-trip success probability for one flow (product over both directions of every link).
  double FlowSuccessProbability(std::span<const LinkId> links, const FlowKey& flow) const;

  // One-way (request direction only) success probability over a link prefix — what a
  // TTL-limited fbtracert probe experiences before the ICMP reply is generated.
  double OneWaySuccessProbability(std::span<const LinkId> links, const FlowKey& flow) const;

  // RTT observation (the anomaly plane's measurement channel, the one way latency reaches
  // diagnosis): with a model attached, SimulatePath fills the caller's RttSketch with up to
  // samples_per_path per-survivor RTT draws. An empty link_load_mbps span means unloaded
  // links (load 0 everywhere), which LatencyModel samples with one log per draw.
  void AttachRttObservation(const LatencyModel* model, std::span<const double> link_load_mbps,
                            int samples_per_path, int sketch_bins = RttSketch::kDefaultBins);
  bool rtt_observation() const { return rtt_model_ != nullptr; }
  int rtt_samples_per_path() const { return rtt_samples_per_path_; }
  int rtt_sketch_bins() const { return rtt_sketch_bins_; }

  const ProbeConfig& config() const { return config_; }
  const Topology& topology() const { return topo_; }

 private:
  friend class ProbeEngineCachePeer;  // reads the healthy-path cache (tests/sim_test.cc)

  // Per-traversal drop probability of one link for one flow.
  double LinkDropProbability(LinkId link, const FlowKey& flow) const;

  // Healthy-path draws. On a path none of whose links carries an active failure every flow
  // loses a probe with the same probability: the round trip at base_loss_rate over each link.
  // The constructor multiplies it out per path length, in FlowSuccessProbability's order, and
  // builds a WaitingBinomial for each small per-flow count whose draw stays off libstdc++'s
  // lgamma sampler (BinomialUsesLgamma): the draw Rng::NextBinomial makes from (count, loss),
  // decided from its first raw value unless that value is at or below the count's threshold.
  static constexpr size_t kCachedPathLinks = 8;
  static constexpr int kCachedFlowPackets = 16;
  struct HealthyPathDraws {
    double loss = 0.0;  // 1 - FlowSuccessProbability of a healthy path of this length
    // Samplers for per-flow counts 1..by_count.size(); empty when `loss` is 0 or 1, whose
    // draws consume no randomness and so serve every count.
    std::vector<WaitingBinomial> by_count;

    // The loss count of `packets` probes of one flow, a count these draws serve.
    template <typename Urng>
    int64_t Draw(int packets, Urng& urng) const {
      // Rng::NextBinomial's order of cases, so deterministic losses consume no randomness.
      if (loss <= 0.0) {
        return 0;
      }
      if (loss >= 1.0) {
        return packets;
      }
      return by_count[static_cast<size_t>(packets) - 1](urng);
    }
  };
  // The cached draws for `links` when no link carries an active failure, the path is at most
  // kCachedPathLinks long and every per-flow count up to `max_flow_packets` is served; null
  // otherwise (the per-flow loop runs).
  const HealthyPathDraws* HealthyDraws(std::span<const LinkId> links,
                                       int max_flow_packets) const;

  const Topology& topo_;
  ProbeConfig config_;
  bool failures_active_ = true;
  // Dense per-link failure lookup (a link can carry at most one injected failure).
  std::vector<int32_t> failure_of_link_;
  std::vector<LinkFailure> failures_;
  std::vector<HealthyPathDraws> healthy_draws_;  // by path length, [0, kCachedPathLinks]
  // Optional RTT observation state.
  const LatencyModel* rtt_model_ = nullptr;
  std::vector<double> rtt_link_load_mbps_;  // empty: unloaded links
  int rtt_samples_per_path_ = 0;
  int rtt_sketch_bins_ = RttSketch::kDefaultBins;
  // Extra one-way delay (us) of each link's kLatencyInflation failure, dense by link: sized at
  // the first such failure the engine sees, and read only while the scenario has one
  // (`inflated_`), so the common case pays one branch.
  std::vector<double> inflation_us_;
  bool inflated_ = false;
};

}  // namespace detector

#endif  // SRC_SIM_PROBE_ENGINE_H_
