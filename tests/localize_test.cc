// Localization algorithm tests: PLL behavior on crafted observation patterns (full loss,
// partial loss, hit-ratio filtering, noise suppression), the Tomo/SCORE/OMP baselines, and the
// evaluation metrics.
#include <gtest/gtest.h>

#include "src/localize/metrics.h"
#include "src/localize/omp.h"
#include "src/localize/pll.h"
#include "src/localize/preprocess.h"
#include "src/localize/score.h"
#include "src/localize/tomo.h"
#include "src/pmc/identifiability.h"
#include "src/pmc/pmc.h"
#include "src/routing/fattree_routing.h"
#include "src/sim/probe_engine.h"

namespace detector {
namespace {

// Small crafted universe: 4 links, one probe path per subset we care about.
struct ToyMatrix {
  Topology topo{"toy"};
  std::vector<LinkId> links;
  PathStore store;

  explicit ToyMatrix(int n) {
    std::vector<NodeId> nodes;
    for (int i = 0; i <= n; ++i) {
      nodes.push_back(topo.AddNode(NodeKind::kTor, 0, i, "n" + std::to_string(i)));
    }
    for (int i = 0; i < n; ++i) {
      links.push_back(topo.AddLink(nodes[static_cast<size_t>(i)],
                                   nodes[static_cast<size_t>(i) + 1], 1));
    }
  }

  void AddPath(std::vector<LinkId> path_links) { store.Add(0, 1, path_links); }

  ProbeMatrix Matrix() { return ProbeMatrix(std::move(store), LinkIndex::ForMonitored(topo)); }
};

TEST(Preprocess, FiltersNoiseAndUnprobedPaths) {
  Observations obs{{1000, 0}, {1000, 1}, {1000, 500}, {0, 0}};
  PreprocessOptions options;
  options.path_loss_ratio_threshold = 1e-3;
  const auto pre = Preprocess(obs, options);
  EXPECT_EQ(pre.valid, (std::vector<uint8_t>{1, 1, 1, 0}));
  // Path 1 lost exactly 1/1000 = threshold, not above it => clean.
  EXPECT_EQ(pre.lossy, (std::vector<uint8_t>{0, 0, 1, 0}));
  EXPECT_EQ(pre.num_lossy, 1);
  EXPECT_EQ(pre.num_valid, 3);
}

TEST(Pll, SingleFullLossLocalized) {
  ToyMatrix toy(3);
  toy.AddPath({0, 1});
  toy.AddPath({1, 2});
  toy.AddPath({2});
  ProbeMatrix matrix = toy.Matrix();
  // Link 1 fails: both paths through it lose everything; path {2} is clean.
  Observations obs{{300, 300}, {300, 300}, {300, 0}};
  const PllLocalizer pll;
  const auto result = pll.Localize(matrix, obs);
  ASSERT_EQ(result.links.size(), 1u);
  EXPECT_EQ(result.links[0].link, 1);
  EXPECT_GT(result.links[0].estimated_loss_rate, 0.9);
}

TEST(Pll, NoLossNoSuspects) {
  ToyMatrix toy(2);
  toy.AddPath({0});
  toy.AddPath({1});
  ProbeMatrix matrix = toy.Matrix();
  Observations obs{{300, 0}, {300, 0}};
  EXPECT_TRUE(PllLocalizer().Localize(matrix, obs).links.empty());
}

TEST(Pll, AmbientNoiseFilteredOut) {
  ToyMatrix toy(2);
  toy.AddPath({0});
  toy.AddPath({1});
  ProbeMatrix matrix = toy.Matrix();
  // 1e-4-ish loss: below the 1e-3 pre-processing threshold => no alarms (§5.1).
  Observations obs{{10000, 1}, {10000, 2}};
  EXPECT_TRUE(PllLocalizer().Localize(matrix, obs).links.empty());
}

TEST(Pll, PartialLossStillLocalized) {
  // Blackhole on link 1 drops flows on two of its three paths; the third is clean. Links 0 and
  // 4 each carry one lossy path but fall under the 0.6 hit-ratio bar (1 lossy / 2 valid), while
  // link 1 clears it (2/3) and explains the most losses.
  ToyMatrix toy(5);
  toy.AddPath({0, 1});  // lossy (blackholed flow)
  toy.AddPath({1, 4});  // lossy (blackholed flow)
  toy.AddPath({1, 2});  // clean flow through the same link
  toy.AddPath({0});     // clean
  toy.AddPath({4});     // clean
  ProbeMatrix matrix = toy.Matrix();
  Observations obs{{300, 150}, {300, 140}, {300, 0}, {300, 0}, {300, 0}};
  const auto result = PllLocalizer().Localize(matrix, obs);
  ASSERT_EQ(result.links.size(), 1u);
  EXPECT_EQ(result.links[0].link, 1);
  EXPECT_NEAR(result.links[0].hit_ratio, 2.0 / 3.0, 1e-9);
}

TEST(Pll, HitRatioThresholdSuppressesInnocentSharedLink) {
  // Link 0 is shared by 5 paths, only one lossy (the culprit is link 3, private to that path).
  ToyMatrix toy(4);
  toy.AddPath({0, 3});  // lossy
  toy.AddPath({0, 1});
  toy.AddPath({0, 1});
  toy.AddPath({0, 2});
  toy.AddPath({0, 2});
  ProbeMatrix matrix = toy.Matrix();
  Observations obs{{300, 290}, {300, 0}, {300, 0}, {300, 0}, {300, 0}};
  const auto result = PllLocalizer().Localize(matrix, obs);
  ASSERT_EQ(result.links.size(), 1u);
  EXPECT_EQ(result.links[0].link, 3);  // link 0's hit ratio 1/5 < 0.6: filtered
}

TEST(Pll, TwoSimultaneousFailures) {
  ToyMatrix toy(4);
  toy.AddPath({0, 1});
  toy.AddPath({1, 2});
  toy.AddPath({2, 3});
  toy.AddPath({3, 0});
  ProbeMatrix matrix = toy.Matrix();
  // Links 1 and 3 fail fully.
  Observations obs{{300, 300}, {300, 300}, {300, 300}, {300, 300}};
  const auto result = PllLocalizer().Localize(matrix, obs);
  // All four paths lossy; the greedy needs two links to explain them.
  ASSERT_EQ(result.links.size(), 2u);
  // The chosen pair must cover all paths: {1,3} or {0,2}.
  const LinkId a = result.links[0].link;
  const LinkId b = result.links[1].link;
  EXPECT_TRUE((a == 1 && b == 3) || (a == 3 && b == 1) || (a == 0 && b == 2) ||
              (a == 2 && b == 0));
}

TEST(Pll, LossRateEstimateInvertsRoundTrip) {
  // One link, one path: per-traversal rate p makes path loss 1-(1-p)^2.
  ToyMatrix toy(1);
  toy.AddPath({0});
  ProbeMatrix matrix = toy.Matrix();
  const double p = 0.2;
  const double path_loss = 1.0 - (1.0 - p) * (1.0 - p);
  Observations obs{{100000, static_cast<int64_t>(100000 * path_loss)}};
  const auto result = PllLocalizer().Localize(matrix, obs);
  ASSERT_EQ(result.links.size(), 1u);
  EXPECT_NEAR(result.links[0].estimated_loss_rate, p, 0.02);
}

TEST(InvertRoundTripLoss, Endpoints) {
  EXPECT_DOUBLE_EQ(InvertRoundTripLoss(0.0), 0.0);
  EXPECT_DOUBLE_EQ(InvertRoundTripLoss(1.0), 1.0);
  EXPECT_NEAR(InvertRoundTripLoss(0.19), 0.1, 1e-9);
}

TEST(Tomo, FullLossLocalized) {
  ToyMatrix toy(3);
  toy.AddPath({0, 1});
  toy.AddPath({1, 2});
  toy.AddPath({0});
  toy.AddPath({2});
  ProbeMatrix matrix = toy.Matrix();
  Observations obs{{300, 300}, {300, 300}, {300, 0}, {300, 0}};
  const auto result = TomoLocalizer().Localize(matrix, obs);
  ASSERT_EQ(result.links.size(), 1u);
  EXPECT_EQ(result.links[0].link, 1);
}

TEST(Tomo, PartialLossBreaksClassicAssumption) {
  // The blackhole spares one of link 1's paths; that clean path "certifies" link 1 good under
  // the classic assumption, so Tomo cannot name the culprit — PLL's motivation (§5.2).
  ToyMatrix toy(5);
  toy.AddPath({0, 1});  // lossy (blackholed flow)
  toy.AddPath({1, 4});  // lossy (blackholed flow)
  toy.AddPath({1, 2});  // clean flow through the same link => Tomo certifies link 1 good
  toy.AddPath({0});     // clean
  toy.AddPath({4});     // clean
  ProbeMatrix matrix = toy.Matrix();
  Observations obs{{300, 150}, {300, 140}, {300, 0}, {300, 0}, {300, 0}};
  const auto tomo = TomoLocalizer().Localize(matrix, obs);
  EXPECT_TRUE(tomo.links.empty());
  const auto pll = PllLocalizer().Localize(matrix, obs);
  ASSERT_EQ(pll.links.size(), 1u);
  EXPECT_EQ(pll.links[0].link, 1);
}

TEST(Score, PicksHighestUtilizationGroup) {
  ToyMatrix toy(3);
  toy.AddPath({0, 1});
  toy.AddPath({0, 1});
  toy.AddPath({1, 2});
  toy.AddPath({2});
  ProbeMatrix matrix = toy.Matrix();
  // Link 1 fails fully: its 3 paths all lossy; link 2's utilization is 1/2.
  Observations obs{{300, 300}, {300, 300}, {300, 300}, {300, 0}};
  const auto result = ScoreLocalizer().Localize(matrix, obs);
  ASSERT_GE(result.links.size(), 1u);
  EXPECT_EQ(result.links[0].link, 1);
}

TEST(Omp, RecoverstTwoSparseFailures) {
  ToyMatrix toy(4);
  toy.AddPath({0});
  toy.AddPath({1});
  toy.AddPath({2});
  toy.AddPath({3});
  toy.AddPath({0, 1});
  toy.AddPath({2, 3});
  ProbeMatrix matrix = toy.Matrix();
  // Links 1 and 2 fail with moderate random loss.
  auto lossy = [](double p) { return static_cast<int64_t>(10000 * (1 - (1 - p) * (1 - p))); };
  Observations obs{{10000, 0},        {10000, lossy(0.3)}, {10000, lossy(0.2)},
                   {10000, 0},        {10000, lossy(0.3)}, {10000, lossy(0.2)}};
  const auto result = OmpLocalizer().Localize(matrix, obs);
  std::vector<LinkId> flagged;
  for (const auto& s : result.links) {
    flagged.push_back(s.link);
  }
  std::sort(flagged.begin(), flagged.end());
  EXPECT_EQ(flagged, (std::vector<LinkId>{1, 2}));
}

TEST(Metrics, ConfusionAgainstTruth) {
  std::vector<SuspectLink> suspects(3);
  suspects[0].link = 1;
  suspects[1].link = 2;
  suspects[2].link = 9;
  const std::vector<LinkId> truth{1, 2, 3};
  const auto counts = EvaluateLocalization(suspects, truth);
  EXPECT_EQ(counts.true_positives, 2);
  EXPECT_EQ(counts.false_positives, 1);
  EXPECT_EQ(counts.false_negatives, 1);
  EXPECT_NEAR(counts.Accuracy(), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(counts.FalsePositiveRatio(), 1.0 / 3.0, 1e-12);
}

TEST(Metrics, DuplicateSuspectsCountedOnce) {
  std::vector<SuspectLink> suspects(2);
  suspects[0].link = 5;
  suspects[1].link = 5;
  const std::vector<LinkId> truth{5};
  const auto counts = EvaluateLocalization(suspects, truth);
  EXPECT_EQ(counts.true_positives, 1);
  EXPECT_EQ(counts.false_positives, 0);
}

// End-to-end: simulate probes over a PMC matrix and check PLL finds an injected failure.
TEST(PllEndToEnd, FatTreeSingleFailure) {
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  PmcOptions pmc;
  pmc.alpha = 3;
  pmc.beta = 1;
  const PmcResult built = BuildProbeMatrix(routing, PathEnumMode::kFull, pmc);
  const ProbeMatrix& matrix = built.matrix;

  FailureScenario scenario;
  LinkFailure failure;
  failure.link = ft.AggCoreLink(1, 0, 1);
  failure.type = FailureType::kRandomPartial;
  failure.loss_rate = 0.5;
  scenario.failures.push_back(failure);

  ProbeEngine engine(ft.topology(), scenario, ProbeConfig{});
  Rng rng(1234);
  Observations obs(matrix.NumPaths());
  for (size_t p = 0; p < matrix.NumPaths(); ++p) {
    const PathId pid = static_cast<PathId>(p);
    obs[p] = engine.SimulatePath(matrix.paths().Links(pid), matrix.paths().src(pid),
                                 matrix.paths().dst(pid), 100, rng);
  }
  const auto result = PllLocalizer().Localize(matrix, obs);
  ASSERT_GE(result.links.size(), 1u);
  EXPECT_EQ(result.links[0].link, failure.link);
  EXPECT_NEAR(result.links[0].estimated_loss_rate, 0.5, 0.15);
}

}  // namespace
}  // namespace detector
