// Property-style parameterized sweeps: probe-matrix invariants across (k, alpha, beta)
// configurations, localization accuracy under randomized multi-failure scenarios, and PLL's
// one scorer against the monolithic reference pass — the workhorse suite that pins the
// paper's qualitative claims across a grid of settings.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "src/localize/metrics.h"
#include "src/localize/pll.h"
#include "src/pmc/identifiability.h"
#include "src/pmc/pmc.h"
#include "src/pmc/structured_fattree.h"
#include "src/routing/fattree_routing.h"
#include "src/sim/failure_model.h"
#include "src/sim/probe_engine.h"
#include "tests/pll_reference.h"

namespace detector {
namespace {

// ---------- Probe-matrix invariants over a (k, alpha, beta) grid ----------

using MatrixParam = std::tuple<int, int, int>;  // k, alpha, beta

class ProbeMatrixInvariants : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(ProbeMatrixInvariants, CoverageEvennessIdentifiability) {
  const auto [k, alpha, beta] = GetParam();
  const FatTree ft(k);
  const FatTreeRouting routing(ft);
  PmcOptions options;
  options.alpha = alpha;
  options.beta = beta;
  const PmcResult result = BuildProbeMatrix(routing, PathEnumMode::kFull, options);

  // Invariant 1: alpha-coverage.
  EXPECT_TRUE(result.stats.alpha_satisfied);
  EXPECT_GE(result.matrix.Coverage().min, alpha);
  // Invariant 2: all selected paths are real candidate paths over monitored links.
  for (size_t p = 0; p < result.matrix.NumPaths(); ++p) {
    for (LinkId l : result.matrix.paths().Links(static_cast<PathId>(p))) {
      EXPECT_TRUE(ft.topology().link(l).monitored);
    }
  }
  // Invariant 3: requested identifiability achieved (k=4 cannot reach beta=2; grid avoids it).
  if (beta >= 1) {
    EXPECT_GE(VerifyIdentifiability(result.matrix, beta).achieved_beta, beta);
  }
  // Invariant 4: selection is a small fraction of the universe.
  EXPECT_LT(result.stats.num_selected, result.stats.num_candidates);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ProbeMatrixInvariants,
    ::testing::Values(MatrixParam{4, 1, 0}, MatrixParam{4, 2, 1}, MatrixParam{4, 3, 1},
                      MatrixParam{6, 1, 1}, MatrixParam{6, 2, 2}, MatrixParam{6, 1, 2},
                      MatrixParam{8, 1, 1}, MatrixParam{8, 2, 1}, MatrixParam{8, 1, 2}),
    [](const auto& info) {
      return "k" + std::to_string(std::get<0>(info.param)) + "a" +
             std::to_string(std::get<1>(info.param)) + "b" +
             std::to_string(std::get<2>(info.param));
    });

// ---------- Localization accuracy under randomized failures ----------

struct LocalizationCase {
  int k;
  int num_failures;
  int beta;
  double min_accuracy;
};

class RandomizedLocalization : public ::testing::TestWithParam<LocalizationCase> {};

TEST_P(RandomizedLocalization, AccuracyAboveFloor) {
  const auto [k, num_failures, beta, min_accuracy] = GetParam();
  const FatTree ft(k);
  ProbeMatrix matrix = StructuredFatTreeProbeMatrix(ft, /*alpha=*/2, beta);

  FailureModelOptions fm_options;
  // Keep loss rates detectable within a test-sized window; ultra-low-rate false negatives are
  // exercised separately in the Table 5 bench.
  fm_options.min_loss_rate = 0.05;
  FailureModel model(ft.topology(), fm_options);
  ProbeConfig probe;
  ProbeEngine healthy(ft.topology(), FailureScenario{}, probe);

  Rng rng(static_cast<uint64_t>(k * 1000 + num_failures * 10 + beta));
  ConfusionCounts totals;
  const int trials = 12;
  for (int t = 0; t < trials; ++t) {
    const FailureScenario scenario = model.SampleLinkFailures(num_failures, rng);
    ProbeEngine engine(ft.topology(), scenario, probe);
    Observations obs(matrix.NumPaths());
    for (size_t p = 0; p < matrix.NumPaths(); ++p) {
      const PathId pid = static_cast<PathId>(p);
      obs[p] = engine.SimulatePath(matrix.paths().Links(pid), matrix.paths().src(pid),
                                   matrix.paths().dst(pid), 120, rng);
    }
    const auto result = PllLocalizer().Localize(matrix, obs);
    totals += EvaluateLocalization(result.links, scenario.FailedLinks());
  }
  EXPECT_GE(totals.Accuracy(), min_accuracy)
      << "TP=" << totals.true_positives << " FP=" << totals.false_positives
      << " FN=" << totals.false_negatives;
  EXPECT_LE(totals.FalsePositiveRatio(), 0.1);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RandomizedLocalization,
    ::testing::Values(LocalizationCase{6, 1, 1, 0.9}, LocalizationCase{6, 3, 1, 0.8},
                      LocalizationCase{6, 3, 2, 0.9}, LocalizationCase{8, 1, 1, 0.9},
                      LocalizationCase{8, 5, 2, 0.85}, LocalizationCase{10, 5, 2, 0.85}),
    [](const auto& info) {
      return "k" + std::to_string(info.param.k) + "f" + std::to_string(info.param.num_failures) +
             "b" + std::to_string(info.param.beta);
    });

// ---------- PLL's one scorer vs the monolithic reference ----------

struct ScorerCase {
  std::string name;
  int k;
  bool structured;  // StructuredFatTreeProbeMatrix(k, alpha, beta = 2) instead of PMC
  int alpha;

  friend void PrintTo(const ScorerCase& c, std::ostream* os) { *os << c.name; }
};

class PllScorerVsReference : public ::testing::TestWithParam<ScorerCase> {};

// Pins PllLocalizer to the independent monolithic pass in tests/pll_reference.h over seeded
// 1-8-link failure windows, with random low-count and zero-sent paths mixed in, at hit-ratio
// thresholds 0.3, 0.6 and 0.9: LocalizeView must equal the reference, and so must
// LocalizeIncremental at every step of a sequence of random dirty subsets, with the cached
// partition dropped partway as an owner does after a structural matrix change. While
// LocalizeView was itself the monolithic pass, the LocalizeView half compared that pass with
// itself and only the incremental half exercised the component scorer.
TEST_P(PllScorerVsReference, LocalizeViewAndIncrementalMatchReference) {
  const ScorerCase& param = GetParam();
  const FatTree ft(param.k);
  const FatTreeRouting routing(ft);
  PmcOptions pmc;
  pmc.alpha = param.alpha;
  pmc.beta = 1;
  const ProbeMatrix matrix =
      param.structured ? StructuredFatTreeProbeMatrix(ft, param.alpha, /*beta=*/2)
                       : BuildProbeMatrix(routing, PathEnumMode::kFull, pmc).matrix;
  const size_t num_paths = matrix.NumPaths();
  const FailureModel model(ft.topology(), FailureModelOptions{});
  const ProbeConfig probe;
  Rng rng(static_cast<uint64_t>(param.k * 100 + param.alpha * 10 + (param.structured ? 1 : 0)));

  // Counts around the preprocessing floors (min_lost_packets = 2, ratio 1e-3): unprobed,
  // single-loss and barely-lossy paths.
  auto perturb = [&](PathObservation& obs) {
    switch (rng.NextInt(0, 4)) {
      case 0:
        obs = PathObservation{0, 0};
        break;
      case 1:
        obs.sent = rng.NextInt(1, 5);
        obs.lost = rng.NextInt(0, static_cast<int>(obs.sent) + 1);
        break;
      case 2:
        obs.lost = std::min<int64_t>(obs.sent, rng.NextInt(1, 3));
        break;
      default:
        obs.sent = rng.NextInt(1, 200);
        obs.lost = rng.NextInt(0, static_cast<int>(obs.sent) + 1);
        break;
    }
  };

  int localized = 0;  // windows whose reference names a suspect: the check is not vacuous
  for (int failures = 1; failures <= 8; ++failures) {
    const FailureScenario scenario = model.SampleLinkFailures(failures, rng);
    const ProbeEngine engine(ft.topology(), scenario, probe);
    Observations base(num_paths);
    for (size_t p = 0; p < num_paths; ++p) {
      const PathId pid = static_cast<PathId>(p);
      base[p] = engine.SimulatePath(matrix.paths().Links(pid), matrix.paths().src(pid),
                                    matrix.paths().dst(pid), 40, rng);
      if (rng.NextBernoulli(0.08)) {
        perturb(base[p]);
      }
    }
    for (const double threshold : {0.3, 0.6, 0.9}) {
      PllOptions options;
      options.hit_ratio_threshold = threshold;
      const PllLocalizer pll(options);
      const ReferencePll reference(options);
      const std::string when =
          param.name + " failures=" + std::to_string(failures) + " threshold=" +
          std::to_string(threshold);
      const LocalizeResult expected = reference.LocalizeView(matrix, base);
      EXPECT_EQ(pll.LocalizeView(matrix, base).links, expected.links) << when;
      localized += expected.links.empty() ? 0 : 1;

      Observations obs = base;
      PllIncrementalState state;
      EXPECT_EQ(pll.LocalizeIncremental(matrix, obs, {}, /*all_dirty=*/true, state).links,
                reference.LocalizeView(matrix, obs).links)
          << when << " step 0";
      for (int step = 1; step <= 6; ++step) {
        if (step == 4) {
          state.structure_valid = false;
        }
        std::vector<PathId> dirty;
        const int touched = rng.NextInt(1, 12);
        for (int i = 0; i < touched; ++i) {
          const PathId slot = static_cast<PathId>(rng.NextBounded(num_paths));
          perturb(obs[static_cast<size_t>(slot)]);
          dirty.push_back(slot);
        }
        EXPECT_EQ(pll.LocalizeIncremental(matrix, obs, dirty, /*all_dirty=*/false, state).links,
                  reference.LocalizeView(matrix, obs).links)
            << when << " step " << step;
      }
    }
  }
  EXPECT_GE(localized, 20) << "of 24 windows";
}

INSTANTIATE_TEST_SUITE_P(
    Matrices, PllScorerVsReference,
    ::testing::Values(ScorerCase{"pmc4a1", 4, false, 1}, ScorerCase{"pmc4a2", 4, false, 2},
                      ScorerCase{"pmc6a1", 6, false, 1}, ScorerCase{"pmc6a2", 6, false, 2},
                      ScorerCase{"structured8", 8, true, 1}),
    [](const auto& info) { return info.param.name; });

// ---------- Identifiability level vs accuracy ordering (Table 4's qualitative claim) ----------

TEST(IdentifiabilityVsAccuracy, HigherBetaNeverHurts) {
  const int k = 6;
  const FatTree ft(k);
  FailureModelOptions fm_options;
  fm_options.min_loss_rate = 0.05;
  FailureModel model(ft.topology(), fm_options);
  ProbeConfig probe;

  double accuracy_by_beta[3] = {0, 0, 0};
  for (int beta = 0; beta <= 2; ++beta) {
    ProbeMatrix matrix = StructuredFatTreeProbeMatrix(ft, /*alpha=*/1, beta);
    Rng rng(4242);
    ConfusionCounts totals;
    for (int t = 0; t < 15; ++t) {
      const FailureScenario scenario = model.SampleLinkFailures(4, rng);
      ProbeEngine engine(ft.topology(), scenario, probe);
      Observations obs(matrix.NumPaths());
      for (size_t p = 0; p < matrix.NumPaths(); ++p) {
        const PathId pid = static_cast<PathId>(p);
        obs[p] = engine.SimulatePath(matrix.paths().Links(pid), matrix.paths().src(pid),
                                     matrix.paths().dst(pid), 120, rng);
      }
      totals += EvaluateLocalization(PllLocalizer().Localize(matrix, obs).links,
                                     scenario.FailedLinks());
    }
    accuracy_by_beta[beta] = totals.Accuracy();
  }
  // The paper's Table 4 trend: identifiability buys accuracy.
  EXPECT_GT(accuracy_by_beta[1], accuracy_by_beta[0]);
  EXPECT_GE(accuracy_by_beta[2] + 0.05, accuracy_by_beta[1]);  // beta=2 at least comparable
}

// ---------- Probe engine distributional property across port entropy ----------

class PortEntropySweep : public ::testing::TestWithParam<int> {};

TEST_P(PortEntropySweep, BlackholeVisibilityGrowsWithPorts) {
  // With more source ports per path, the chance that at least one flow hits a blackhole rule
  // grows. A blackhole verdict is deterministic per flow, so the randomness to average over is
  // the rule itself: each trial draws a fresh rule seed (a different misprogrammed match).
  const int ports = GetParam();
  const FatTree ft(4);
  ProbeConfig config;
  config.base_loss_rate = 0.0;
  config.port_count = ports;
  const std::vector<LinkId> path{ft.EdgeAggLink(0, 0, 0)};
  Rng rng(static_cast<uint64_t>(ports));
  int rules_detected = 0;
  const int trials = 80;
  for (int t = 0; t < trials; ++t) {
    LinkFailure f;
    f.link = ft.EdgeAggLink(0, 0, 0);
    f.type = FailureType::kDeterministicPartial;
    f.match_fraction = 0.3;
    f.rule_seed = static_cast<uint64_t>(t) * 7919 + 13;
    FailureScenario scenario;
    scenario.failures.push_back(f);
    ProbeEngine engine(ft.topology(), scenario, config);
    const auto obs = engine.SimulatePath(path, ft.Tor(0, 0), ft.Agg(0, 0), ports * 10, rng);
    rules_detected += obs.lost > 0 ? 1 : 0;
  }
  // Request + reply flows: 2*ports independent 0.3-match draws per rule.
  const double expect_hit = 1.0 - std::pow(0.7, 2 * ports);
  EXPECT_NEAR(rules_detected / static_cast<double>(trials), expect_hit, 0.25);
  if (ports >= 8) {
    EXPECT_GT(rules_detected, trials * 3 / 4);
  }
}

INSTANTIATE_TEST_SUITE_P(Ports, PortEntropySweep, ::testing::Values(1, 2, 4, 8, 16),
                         [](const auto& info) { return "p" + std::to_string(info.param); });

}  // namespace
}  // namespace detector
