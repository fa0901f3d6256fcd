// Simulator tests: loss-model semantics, probe-engine statistics (binomial vs per-packet mode
// agreement), failure sampling distributions, workload and latency models.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <random>
#include <span>
#include <vector>

#include "src/sim/failure_model.h"
#include "src/sim/latency_model.h"
#include "src/sim/loss_model.h"
#include "src/sim/probe_engine.h"
#include "src/sim/watchdog.h"
#include "src/sim/workload.h"
#include "src/topo/fattree.h"

namespace detector {

// Reads ProbeEngine's healthy-path cache (a friend of the engine).
class ProbeEngineCachePeer {
 public:
  static size_t CachedLengths(const ProbeEngine& engine) { return engine.healthy_draws_.size(); }
  static const auto& Draws(const ProbeEngine& engine, size_t links) {
    return engine.healthy_draws_[links];
  }
};

namespace {

FlowKey MakeFlow(NodeId src, NodeId dst, uint16_t sport = 1000) {
  return FlowKey{src, dst, sport, 2000, 17};
}

// A 64-bit generator whose first output is scripted and whose later outputs are an Rng
// stream's, counting its outputs — how a test feeds one raw value to two samplers and checks
// that they consume the same number of values.
struct ScriptedRng {
  using result_type = uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  ScriptedRng(uint64_t first_value, uint64_t tail_seed) : first(first_value), tail(tail_seed) {}

  result_type operator()() { return calls++ == 0 ? first : tail(); }

  uint64_t first;
  Rng tail;
  uint64_t calls = 0;
};

TEST(LossModel, FullLossDropsEverything) {
  LinkFailure f;
  f.type = FailureType::kFullLoss;
  EXPECT_DOUBLE_EQ(f.DropProbability(MakeFlow(0, 1)), 1.0);
}

TEST(LossModel, RandomPartialUsesRate) {
  LinkFailure f;
  f.type = FailureType::kRandomPartial;
  f.loss_rate = 0.25;
  EXPECT_DOUBLE_EQ(f.DropProbability(MakeFlow(0, 1)), 0.25);
}

TEST(LossModel, DeterministicPartialIsPerFlowStable) {
  LinkFailure f;
  f.type = FailureType::kDeterministicPartial;
  f.match_fraction = 0.5;
  f.rule_seed = 99;
  int matched = 0;
  for (uint16_t port = 0; port < 200; ++port) {
    const FlowKey flow = MakeFlow(1, 2, port);
    const bool m1 = f.FlowMatchesRule(flow);
    const bool m2 = f.FlowMatchesRule(flow);
    EXPECT_EQ(m1, m2);  // same flow, same verdict, always
    matched += m1 ? 1 : 0;
  }
  // Roughly half the flow space matches.
  EXPECT_GT(matched, 60);
  EXPECT_LT(matched, 140);
}

TEST(ProbeEngine, HealthyPathLosesAlmostNothing) {
  const FatTree ft(4);
  FailureScenario scenario;
  ProbeConfig config;
  config.base_loss_rate = 0.0;
  ProbeEngine engine(ft.topology(), scenario, config);
  Rng rng(1);
  const std::vector<LinkId> path{ft.EdgeAggLink(0, 0, 0), ft.AggCoreLink(0, 0, 0)};
  const auto obs = engine.SimulatePath(path, ft.Tor(0, 0), ft.Tor(1, 0), 1000, rng);
  EXPECT_EQ(obs.sent, 1000);
  EXPECT_EQ(obs.lost, 0);
}

TEST(ProbeEngine, FullLossKillsPath) {
  const FatTree ft(4);
  FailureScenario scenario;
  LinkFailure f;
  f.link = ft.EdgeAggLink(0, 0, 0);
  f.type = FailureType::kFullLoss;
  scenario.failures.push_back(f);
  ProbeEngine engine(ft.topology(), scenario, ProbeConfig{});
  Rng rng(2);
  const std::vector<LinkId> path{ft.EdgeAggLink(0, 0, 0), ft.AggCoreLink(0, 0, 0)};
  const auto obs = engine.SimulatePath(path, ft.Tor(0, 0), ft.Tor(1, 0), 500, rng);
  EXPECT_EQ(obs.lost, 500);
}

TEST(ProbeEngine, RandomPartialRoundTripStatistics) {
  const FatTree ft(4);
  FailureScenario scenario;
  LinkFailure f;
  f.link = ft.EdgeAggLink(0, 0, 0);
  f.type = FailureType::kRandomPartial;
  f.loss_rate = 0.2;
  scenario.failures.push_back(f);
  ProbeConfig config;
  config.base_loss_rate = 0.0;
  ProbeEngine engine(ft.topology(), scenario, config);
  Rng rng(3);
  const std::vector<LinkId> path{ft.EdgeAggLink(0, 0, 0)};
  const int n = 200000;
  const auto obs = engine.SimulatePath(path, ft.Tor(0, 0), ft.Agg(0, 0), n, rng);
  // Round trip crosses the link twice: loss = 1 - 0.8^2 = 0.36.
  EXPECT_NEAR(static_cast<double>(obs.lost) / n, 0.36, 0.01);
}

TEST(ProbeEngine, DeterministicPartialAffectsMatchingFlowsOnly) {
  const FatTree ft(4);
  FailureScenario scenario;
  LinkFailure f;
  f.link = ft.EdgeAggLink(0, 0, 0);
  f.type = FailureType::kDeterministicPartial;
  f.match_fraction = 0.5;
  f.rule_seed = 7;
  scenario.failures.push_back(f);
  ProbeConfig config;
  config.base_loss_rate = 0.0;
  config.port_count = 64;
  ProbeEngine engine(ft.topology(), scenario, config);
  Rng rng(4);
  const std::vector<LinkId> path{ft.EdgeAggLink(0, 0, 0)};
  const auto obs = engine.SimulatePath(path, ft.Tor(0, 0), ft.Agg(0, 0), 6400, rng);
  const double ratio = static_cast<double>(obs.lost) / static_cast<double>(obs.sent);
  // Some flows fully black, others clean: aggregate loss strictly between.
  EXPECT_GT(ratio, 0.2);
  EXPECT_LT(ratio, 0.95);
  // Per-flow: either all packets or none are lost.
  for (uint16_t port = 0; port < 8; ++port) {
    const FlowKey flow = MakeFlow(ft.Tor(0, 0), ft.Agg(0, 0), port);
    const auto per_flow = engine.SimulateFlow(path, flow, 100, rng);
    EXPECT_TRUE(per_flow.lost == 0 || per_flow.lost == 100);
  }
}

TEST(ProbeEngine, PacketAndBinomialModesAgree) {
  const FatTree ft(4);
  FailureScenario scenario;
  LinkFailure f;
  f.link = ft.EdgeAggLink(0, 0, 0);
  f.type = FailureType::kRandomPartial;
  f.loss_rate = 0.3;
  scenario.failures.push_back(f);
  ProbeConfig config;
  config.base_loss_rate = 0.0;
  ProbeEngine engine(ft.topology(), scenario, config);
  Rng rng(5);
  const std::vector<LinkId> path{ft.EdgeAggLink(0, 0, 0), ft.AggCoreLink(0, 0, 0)};
  const FlowKey flow = MakeFlow(ft.Tor(0, 0), ft.Core(0, 0));

  const int n = 50000;
  int packet_losses = 0;
  for (int i = 0; i < n; ++i) {
    if (!engine.SimulatePacket(path, flow, rng)) {
      ++packet_losses;
    }
  }
  const auto binom = engine.SimulateFlow(path, flow, n, rng);
  const double p1 = static_cast<double>(packet_losses) / n;
  const double p2 = static_cast<double>(binom.lost) / n;
  EXPECT_NEAR(p1, p2, 0.01);
}

TEST(ProbeEngine, DroppedLinkReported) {
  const FatTree ft(4);
  FailureScenario scenario;
  LinkFailure f;
  f.link = ft.AggCoreLink(0, 0, 0);
  f.type = FailureType::kFullLoss;
  scenario.failures.push_back(f);
  ProbeConfig config;
  config.base_loss_rate = 0.0;
  ProbeEngine engine(ft.topology(), scenario, config);
  Rng rng(6);
  const std::vector<LinkId> path{ft.EdgeAggLink(0, 0, 0), ft.AggCoreLink(0, 0, 0)};
  LinkId dropped = kInvalidLink;
  EXPECT_FALSE(engine.SimulatePacket(path, MakeFlow(ft.Tor(0, 0), ft.Core(0, 0)), rng, &dropped));
  EXPECT_EQ(dropped, ft.AggCoreLink(0, 0, 0));
}

TEST(ProbeEngine, DeactivatedFailuresHeal) {
  const FatTree ft(4);
  FailureScenario scenario;
  LinkFailure f;
  f.link = ft.EdgeAggLink(0, 0, 0);
  f.type = FailureType::kFullLoss;
  scenario.failures.push_back(f);
  ProbeConfig config;
  config.base_loss_rate = 0.0;
  ProbeEngine engine(ft.topology(), scenario, config);
  engine.SetFailuresActive(false);
  Rng rng(7);
  const std::vector<LinkId> path{ft.EdgeAggLink(0, 0, 0)};
  const auto obs = engine.SimulatePath(path, ft.Tor(0, 0), ft.Agg(0, 0), 100, rng);
  EXPECT_EQ(obs.lost, 0);
}

TEST(ProbeEngine, OneWayPrefixProbability) {
  const FatTree ft(4);
  FailureScenario scenario;
  LinkFailure f;
  f.link = ft.AggCoreLink(0, 0, 0);
  f.type = FailureType::kFullLoss;
  scenario.failures.push_back(f);
  ProbeConfig config;
  config.base_loss_rate = 0.0;
  ProbeEngine engine(ft.topology(), scenario, config);
  const std::vector<LinkId> path{ft.EdgeAggLink(0, 0, 0), ft.AggCoreLink(0, 0, 0)};
  const FlowKey flow = MakeFlow(ft.Tor(0, 0), ft.Core(0, 0));
  EXPECT_DOUBLE_EQ(
      engine.OneWaySuccessProbability(std::span<const LinkId>(path.data(), 1), flow), 1.0);
  EXPECT_DOUBLE_EQ(
      engine.OneWaySuccessProbability(std::span<const LinkId>(path.data(), 2), flow), 0.0);
}

// SimulatePath's per-flow reference: one SimulateFlow per port with the flow SimulatePath
// builds, then its RTT sampling over the survivors (unloaded links, `inflation_us` added to
// every sample).
PathObservation PerFlowReference(const ProbeEngine& engine, const LatencyModel& model,
                                 std::span<const LinkId> links, NodeId src, NodeId dst,
                                 int packets, double inflation_us, Rng& rng, RttSketch* rtt) {
  PathObservation obs;
  obs.sent = packets;
  if (packets <= 0) {
    return obs;
  }
  const ProbeConfig& config = engine.config();
  const int ports = std::max(1, config.port_count);
  for (int p = 0; p < ports; ++p) {
    const int n = packets / ports + (p < packets % ports ? 1 : 0);
    if (n == 0) {
      continue;
    }
    FlowKey flow;
    flow.src = src;
    flow.dst = dst;
    flow.src_port = static_cast<uint16_t>(config.src_port_base + p);
    flow.dst_port = config.dst_port;
    obs.lost += engine.SimulateFlow(links, flow, n, rng).lost;
  }
  if (rtt != nullptr && obs.lost < obs.sent) {
    const std::vector<double> idle(engine.topology().NumLinks(), 0.0);
    const int64_t samples = std::min<int64_t>(obs.sent - obs.lost, engine.rtt_samples_per_path());
    for (int64_t i = 0; i < samples; ++i) {
      rtt->Record(static_cast<int64_t>(model.SampleRttUs(links, idle, rng) + inflation_us));
    }
  }
  return obs;
}

// SimulatePath draws healthy paths from per-length cached parameters; every draw must equal
// the per-flow loop's, for paths longer than the cache, per-flow counts beyond it, failures on
// and off the path (active or not), any base loss rate, port count and RTT observation.
TEST(ProbeEngine, HealthyPathDrawsMatchPerFlowReference) {
  const FatTree ft(8);
  const Topology& topo = ft.topology();
  const LinkId failed = ft.AggCoreLink(0, 0, 0);
  std::vector<LinkId> others;
  for (size_t link = 0; link < topo.NumLinks(); ++link) {
    if (static_cast<LinkId>(link) != failed) {
      others.push_back(static_cast<LinkId>(link));
    }
  }
  const NodeId src = ft.Server(0, 0, 0);
  const NodeId dst = ft.Server(3, 1, 2);
  const LatencyModel model(LatencyModelOptions{});
  constexpr double kDelayUs = 2500.0;

  std::vector<std::optional<LinkFailure>> failures = {std::nullopt};
  for (const FailureType type :
       {FailureType::kFullLoss, FailureType::kRandomPartial, FailureType::kDeterministicPartial,
        FailureType::kLatencyInflation}) {
    LinkFailure f;
    f.link = failed;
    f.type = type;
    f.loss_rate = type == FailureType::kRandomPartial ? 0.05 : 1.0;
    f.match_fraction = 0.5;
    f.rule_seed = 7;
    f.added_delay_us = type == FailureType::kLatencyInflation ? kDelayUs : 0.0;
    failures.push_back(f);
  }
  std::vector<int> packet_counts;
  for (int n = 0; n <= 20; ++n) {
    packet_counts.push_back(n);
  }
  for (const int n : {31, 32, 33, 127, 128, 129, 200}) {
    packet_counts.push_back(n);
  }

  uint64_t case_id = 0;
  int64_t lost_total = 0;
  for (const double base_loss : {0.0, 1e-5, 0.3}) {
    for (const int ports : {1, 8}) {
      for (const bool observe_rtt : {false, true}) {
        for (const auto& failure : failures) {
          for (const bool active : {true, false}) {
            FailureScenario scenario;
            if (failure.has_value()) {
              scenario.failures.push_back(*failure);
            }
            ProbeConfig config;
            config.base_loss_rate = base_loss;
            config.port_count = ports;
            ProbeEngine engine(topo, scenario, config);
            engine.SetFailuresActive(active);
            if (observe_rtt) {
              engine.AttachRttObservation(&model, {}, /*samples_per_path=*/4);
            }
            // The cache itself: each length's loss bit-equals the per-flow product, and each
            // cached count, off lgamma, stores libstdc++'s own threshold: the sampler
            // Rng::NextBinomial builds returns 0 (n past the p > 0.5 flip) from the next raw
            // value alone, and something else from the threshold itself.
            for (size_t length = 0; length < ProbeEngineCachePeer::CachedLengths(engine);
                 ++length) {
              const std::span<const LinkId> healthy(others.data(), length);
              const double loss =
                  1.0 - engine.FlowSuccessProbability(healthy, MakeFlow(src, dst));
              const auto& draws = ProbeEngineCachePeer::Draws(engine, length);
              ASSERT_EQ(draws.loss, loss) << "length " << length;
              for (size_t n = 1; n <= draws.by_count.size(); ++n) {
                const int64_t count = static_cast<int64_t>(n);
                ASSERT_FALSE(BinomialUsesLgamma(count, loss));
                const uint64_t zero_above = draws.by_count[n - 1].zero_above();
                const int64_t zero = loss > 0.5 ? count : 0;
                std::binomial_distribution<int64_t> dist(count, loss);
                ASSERT_LT(zero_above, ~0ULL);
                ScriptedRng above(zero_above + 1, 1);
                ASSERT_EQ(dist(above), zero);
                ASSERT_EQ(above.calls, 1u);
                ScriptedRng at(zero_above, 1);
                ASSERT_NE(dist(at), zero) << "length " << length << " count " << n;
              }
            }
            Rng picker(HashCombine(17, case_id));
            for (size_t length = 1; length <= 20; ++length) {
              for (const bool on_path : {false, true}) {
                std::vector<LinkId> links;
                for (size_t i = 0; i < length; ++i) {
                  links.push_back(others[picker.NextBounded(others.size())]);
                }
                if (on_path) {
                  links[picker.NextBounded(length)] = failed;
                }
                const bool inflated = on_path && active && failure.has_value() &&
                                      failure->type == FailureType::kLatencyInflation;
                const double inflation = inflated ? 2.0 * kDelayUs : 0.0;
                for (const int packets : packet_counts) {
                  ++case_id;
                  SCOPED_TRACE(testing::Message()
                               << "base_loss " << base_loss << " ports " << ports << " rtt "
                               << observe_rtt << " failure "
                               << (failure.has_value() ? FailureTypeName(failure->type) : "none")
                               << " active " << active << " length " << length << " on_path "
                               << on_path << " packets " << packets);
                  Rng cached_rng(HashCombine(29, case_id));
                  Rng reference_rng(HashCombine(29, case_id));
                  RttSketch cached_rtt(engine.rtt_sketch_bins());
                  RttSketch reference_rtt(engine.rtt_sketch_bins());
                  const PathObservation cached = engine.SimulatePath(
                      links, src, dst, packets, cached_rng, observe_rtt ? &cached_rtt : nullptr);
                  const PathObservation reference =
                      PerFlowReference(engine, model, links, src, dst, packets, inflation,
                                       reference_rng, observe_rtt ? &reference_rtt : nullptr);
                  ASSERT_EQ(cached.sent, reference.sent);
                  ASSERT_EQ(cached.lost, reference.lost);
                  ASSERT_EQ(cached_rtt.total(), reference_rtt.total());
                  ASSERT_TRUE(std::ranges::equal(cached_rtt.bins(), reference_rtt.bins()));
                  ASSERT_EQ(cached_rng(), reference_rng());
                  lost_total += cached.lost;
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(lost_total, 0);
}

// Every cached healthy-path draw equals libstdc++'s std::binomial_distribution for the same
// raw values, around each threshold and at both ends of the raw range: same count, same
// number of raw values consumed, streams still aligned after. Base loss 0.3 puts every path's
// loss above 0.5, where the sampler draws for 1 - p and flips its count.
TEST(ProbeEngine, HealthyDrawsMatchLibstdcxxAroundThresholds) {
  const FatTree ft(4);
  uint64_t case_id = 0;
  int64_t waited = 0;   // draws whose first raw value did not decide them
  int64_t flipped = 0;  // draws past the p > 0.5 flip
  for (const double base_loss : {1e-5, 1e-3, 0.3}) {
    ProbeConfig config;
    config.base_loss_rate = base_loss;
    const ProbeEngine engine(ft.topology(), FailureScenario{}, config);
    for (size_t length = 1; length < ProbeEngineCachePeer::CachedLengths(engine); ++length) {
      const auto& draws = ProbeEngineCachePeer::Draws(engine, length);
      ASSERT_EQ(draws.by_count.size(), 16u) << "base_loss " << base_loss;
      for (int n = 1; n <= static_cast<int>(draws.by_count.size()); ++n) {
        const uint64_t zero_above = draws.by_count[static_cast<size_t>(n) - 1].zero_above();
        std::vector<uint64_t> firsts = {0, ~0ULL, zero_above};
        for (int k = 0; k <= 20; ++k) {
          const uint64_t step = uint64_t{1} << k;
          if (zero_above >= step) {
            firsts.push_back(zero_above - step);
          }
          if (zero_above <= ~0ULL - step) {
            firsts.push_back(zero_above + step);
          }
        }
        std::binomial_distribution<int64_t> dist(n, draws.loss);
        for (const uint64_t first : firsts) {
          ++case_id;
          ScriptedRng reference(first, case_id);
          ScriptedRng cached(first, case_id);
          const int64_t expected = dist(reference);
          ASSERT_EQ(draws.Draw(n, cached), expected)
              << "base_loss " << base_loss << " length " << length << " count " << n
              << " first " << first << " zero_above " << zero_above;
          ASSERT_EQ(cached.calls, reference.calls);
          ASSERT_EQ(cached.tail(), reference.tail());
          waited += first <= zero_above ? 1 : 0;
          flipped += draws.loss > 0.5 ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(waited, 0);
  EXPECT_GT(flipped, 0);
}

// One engine re-armed through a run of scenarios draws exactly what an engine built fresh for
// each scenario draws — losses, RTT bins and stream positions — with and without RTT
// observation: clearing the previous scenario's entries leaves nothing behind.
TEST(ProbeEngine, RearmedEngineDrawsWhatAFreshOneDraws) {
  const FatTree ft(8);
  const Topology& topo = ft.topology();
  const LatencyModel model(LatencyModelOptions{});
  const LinkId a = ft.AggCoreLink(0, 0, 0);
  const LinkId b = ft.EdgeAggLink(0, 0, 0);
  const LinkId c = ft.AggCoreLink(1, 0, 0);
  const LinkId d = ft.EdgeAggLink(1, 0, 0);
  auto make = [](LinkId link, FailureType type, double loss_rate, double delay_us) {
    LinkFailure f;
    f.link = link;
    f.type = type;
    f.loss_rate = loss_rate;
    f.match_fraction = 0.5;
    f.rule_seed = 11;
    f.added_delay_us = delay_us;
    return f;
  };
  const LinkFailure full_a = make(a, FailureType::kFullLoss, 1.0, 0.0);
  const LinkFailure full_b = make(b, FailureType::kFullLoss, 1.0, 0.0);
  const LinkFailure partial_c = make(c, FailureType::kRandomPartial, 0.05, 0.0);
  const LinkFailure blackhole_d = make(d, FailureType::kDeterministicPartial, 1.0, 0.0);
  const LinkFailure slow_a = make(a, FailureType::kLatencyInflation, 1.0, 2500.0);
  const LinkFailure slow_b = make(b, FailureType::kLatencyInflation, 1.0, 900.0);
  std::vector<FailureScenario> sequence(6);
  sequence[1].failures = {full_a, full_b};                   // full loss
  sequence[2].failures = {partial_c, blackhole_d, slow_a};   // partial loss + inflation
  sequence[3].failures = {slow_b, partial_c, full_b, full_a, slow_a};  // b and a twice
  // Dead overlay links, appended after the scenario's own failures as
  // DetectorSystem::OverlaidScenario does: c's partial failure wins over its dead entry.
  sequence[4].failures = {partial_c, slow_b, make(c, FailureType::kFullLoss, 1.0, 0.0),
                          make(d, FailureType::kFullLoss, 1.0, 0.0)};
  // sequence[0] and sequence[5]: no failure.

  std::vector<LinkId> others;
  for (size_t link = 0; link < topo.NumLinks(); ++link) {
    const LinkId id = static_cast<LinkId>(link);
    if (id != a && id != b && id != c && id != d) {
      others.push_back(id);
    }
  }
  const NodeId src = ft.Server(0, 0, 0);
  const NodeId dst = ft.Server(3, 1, 2);
  uint64_t case_id = 0;
  int64_t lost_total = 0;
  int64_t samples_total = 0;
  for (const bool observe_rtt : {false, true}) {
    ProbeEngine rearmed(topo, FailureScenario{}, ProbeConfig{});
    if (observe_rtt) {
      rearmed.AttachRttObservation(&model, {}, /*samples_per_path=*/4);
    }
    for (const FailureScenario& scenario : sequence) {
      rearmed.SetScenario(scenario);
      ProbeEngine fresh(topo, scenario, ProbeConfig{});
      if (observe_rtt) {
        fresh.AttachRttObservation(&model, {}, /*samples_per_path=*/4);
      }
      // The first failure listed for a link wins: each link drops what it drops in an engine
      // given only those first failures.
      FailureScenario first_per_link;
      for (const LinkFailure& f : scenario.failures) {
        if (std::ranges::none_of(first_per_link.failures,
                                 [&](const LinkFailure& g) { return g.link == f.link; })) {
          first_per_link.failures.push_back(f);
        }
      }
      const ProbeEngine deduped(topo, first_per_link, ProbeConfig{});
      for (const LinkId link : {a, b, c, d}) {
        const std::span<const LinkId> one(&link, 1);
        for (uint16_t port = 0; port < 8; ++port) {
          const FlowKey flow = MakeFlow(src, dst, static_cast<uint16_t>(33434 + port));
          ASSERT_EQ(rearmed.FlowSuccessProbability(one, flow),
                    deduped.FlowSuccessProbability(one, flow));
        }
      }
      Rng picker(HashCombine(41, case_id));
      for (int path = 0; path < 40; ++path) {
        std::vector<LinkId> links;
        const size_t length = 1 + picker.NextBounded(6);
        for (size_t i = 0; i < length; ++i) {
          links.push_back(others[picker.NextBounded(others.size())]);
        }
        // Most paths cross one of the links the scenarios fail.
        if (path % 5 != 0) {
          links[picker.NextBounded(length)] = std::array{a, b, c, d}[picker.NextBounded(4)];
        }
        for (const int packets : {1, 3, 8, 20, 100}) {
          ++case_id;
          Rng rearmed_rng(HashCombine(43, case_id));
          Rng fresh_rng(HashCombine(43, case_id));
          RttSketch rearmed_rtt(rearmed.rtt_sketch_bins());
          RttSketch fresh_rtt(fresh.rtt_sketch_bins());
          const PathObservation got = rearmed.SimulatePath(
              links, src, dst, packets, rearmed_rng, observe_rtt ? &rearmed_rtt : nullptr);
          const PathObservation want = fresh.SimulatePath(
              links, src, dst, packets, fresh_rng, observe_rtt ? &fresh_rtt : nullptr);
          ASSERT_EQ(got.sent, want.sent);
          ASSERT_EQ(got.lost, want.lost) << "case " << case_id;
          ASSERT_EQ(rearmed_rtt.total(), fresh_rtt.total());
          ASSERT_TRUE(std::ranges::equal(rearmed_rtt.bins(), fresh_rtt.bins()));
          ASSERT_EQ(rearmed_rng(), fresh_rng());
          lost_total += got.lost;
          samples_total += got.sent > got.lost ? rearmed_rtt.total() : 0;
        }
      }
    }
  }
  EXPECT_GT(lost_total, 0);
  EXPECT_GT(samples_total, 0);
}

TEST(FailureModel, SamplesRequestedCount) {
  const FatTree ft(8);
  FailureModel model(ft.topology(), FailureModelOptions{});
  Rng rng(8);
  for (int n : {1, 5, 20}) {
    const auto scenario = model.SampleLinkFailures(n, rng);
    EXPECT_EQ(scenario.failures.size(), static_cast<size_t>(n));
    EXPECT_EQ(scenario.FailedLinks().size(), static_cast<size_t>(n));  // distinct links
    for (const auto& f : scenario.failures) {
      EXPECT_TRUE(ft.topology().link(f.link).monitored);
    }
  }
}

TEST(FailureModel, TypeMixRoughlyMatchesConfig) {
  const FatTree ft(8);
  FailureModelOptions options;
  options.full_loss_fraction = 0.5;
  options.deterministic_fraction = 0.25;
  FailureModel model(ft.topology(), options);
  Rng rng(9);
  int full = 0;
  int det = 0;
  int rand_partial = 0;
  int latency = 0;
  const int trials = 3000;
  for (int i = 0; i < trials; ++i) {
    const auto s = model.SampleLinkFailures(1, rng);
    switch (s.failures[0].type) {
      case FailureType::kFullLoss:
        ++full;
        break;
      case FailureType::kDeterministicPartial:
        ++det;
        break;
      case FailureType::kRandomPartial:
        ++rand_partial;
        break;
      case FailureType::kLatencyInflation:
        ++latency;
        break;
    }
  }
  EXPECT_NEAR(full / static_cast<double>(trials), 0.5, 0.05);
  EXPECT_NEAR(det / static_cast<double>(trials), 0.25, 0.05);
  EXPECT_NEAR(rand_partial / static_cast<double>(trials), 0.25, 0.05);
  EXPECT_EQ(latency, 0);  // the model samples loss failures only
}

TEST(FailureModel, SwitchFailureCoversAllAdjacentLinks) {
  const FatTree ft(4);
  FailureModel model(ft.topology(), FailureModelOptions{});
  Rng rng(10);
  const auto scenario = model.SampleSwitchFailure(NodeKind::kAgg, rng);
  ASSERT_EQ(scenario.down_switches.size(), 1u);
  // An agg switch has k = 4 monitored links (k/2 down + k/2 up).
  EXPECT_EQ(scenario.failures.size(), 4u);
  for (const auto& f : scenario.failures) {
    const Link& l = ft.topology().link(f.link);
    EXPECT_TRUE(l.a == scenario.down_switches[0] || l.b == scenario.down_switches[0]);
    EXPECT_EQ(f.type, FailureType::kFullLoss);
  }
}

TEST(FailureModel, TierWeightsZeroExcludesTier) {
  const FatTree ft(4);
  FailureModelOptions options;
  options.tier_weights = {0.0, 1.0, 0.0};  // only ToR-agg links
  FailureModel model(ft.topology(), options);
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    const auto s = model.SampleLinkFailures(1, rng);
    EXPECT_EQ(ft.topology().link(s.failures[0].link).tier, 1);
  }
}

TEST(Watchdog, TracksHealth) {
  const FatTree ft(4);
  Watchdog wd(ft.topology());
  const NodeId server = ft.Server(0, 0, 0);
  EXPECT_TRUE(wd.IsHealthy(server));
  wd.MarkDown(server);
  EXPECT_FALSE(wd.IsHealthy(server));
  EXPECT_EQ(wd.NumDown(), 1u);
  wd.MarkUp(server);
  EXPECT_TRUE(wd.IsHealthy(server));
}

TEST(Workload, GeneratesRoutedFlows) {
  const FatTree ft(4);
  WorkloadOptions options;
  options.flows_per_server = 2;
  WorkloadGenerator gen(ft, options);
  Rng rng(12);
  const auto flows = gen.Generate(rng);
  EXPECT_EQ(flows.size(), ft.topology().CountNodes(NodeKind::kServer) * 2);
  for (const auto& flow : flows) {
    EXPECT_NE(flow.key.src, flow.key.dst);
    EXPECT_GT(flow.mbps, 0.0);
    EXPECT_GE(flow.links.size(), 2u);  // at least the two server links
  }
  const auto load = gen.LinkLoadMbps(flows);
  double total = 0;
  for (double l : load) {
    total += l;
  }
  EXPECT_GT(total, 0.0);
}

// Unloaded links (an empty load span) sum the hops' exponential jitters with one log over
// the product of (1 - U_i); a zero-filled span takes one log1p per hop. The two are equal in
// exact arithmetic but not by construction in floating point, so this pins what the probe
// engine relies on: the same integer sample (what a sketch records) from the same uniforms,
// and the same draws consumed, at every path length a fat-tree route has.
TEST(Latency, UnloadedOneLogDrawMatchesPerHopFormula) {
  const FatTree ft(4);
  const LatencyModel model(LatencyModelOptions{});
  const std::vector<double> idle(ft.topology().NumLinks(), 0.0);
  constexpr int kDraws = 200000;
  for (int length = 1; length <= 8; ++length) {
    std::vector<LinkId> path;
    for (int i = 0; i < length; ++i) {
      path.push_back(static_cast<LinkId>(i));
    }
    Rng per_hop(1000 + static_cast<uint64_t>(length));
    Rng one_log(1000 + static_cast<uint64_t>(length));
    int mismatched = 0;
    for (int i = 0; i < kDraws; ++i) {
      const auto expected = static_cast<int64_t>(model.SampleRttUs(path, idle, per_hop));
      const auto sampled = static_cast<int64_t>(model.SampleRttUs(path, {}, one_log));
      mismatched += expected != sampled ? 1 : 0;
    }
    EXPECT_EQ(mismatched, 0) << "path length " << length;
    EXPECT_EQ(per_hop(), one_log()) << "path length " << length;
  }
}

TEST(Latency, RttGrowsWithLoad) {
  const FatTree ft(4);
  LatencyModel model(LatencyModelOptions{});
  Rng rng(13);
  const std::vector<LinkId> path{ft.EdgeAggLink(0, 0, 0), ft.AggCoreLink(0, 0, 0)};
  std::vector<double> idle(ft.topology().NumLinks(), 0.0);
  std::vector<double> busy(ft.topology().NumLinks(), 900.0);  // 90% utilization
  double idle_total = 0;
  double busy_total = 0;
  for (int i = 0; i < 2000; ++i) {
    idle_total += model.SampleRttUs(path, idle, rng);
    busy_total += model.SampleRttUs(path, busy, rng);
  }
  EXPECT_GT(busy_total, idle_total * 3);
}

}  // namespace
}  // namespace detector
