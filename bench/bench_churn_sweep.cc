// Churn-aware evaluation sweep (ROADMAP open item): detection/localization quality vs
// topology-churn rate. Each trial injects one random link failure, samples a churn trace for
// one 30 s window, and runs the window through RunWindowStreaming — probes before each churn
// event see the pre-delta network, the incremental repair re-routes mid-window, and the
// diagnoser works on whatever observations survived slot invalidation. Post-window recovery
// events are applied directly so every trial starts from a clean overlay.
//
// There is no paper counterpart: the paper evaluates static failure scenarios per window
// (§6.3); this sweep prices how much continuous link/switch churn erodes accuracy.
//
// Flags: --rates=0,3,6,12,30  link churn events/minute per row
//        --trials=10          windows per row
//        --k=8                fat-tree arity
//        --pps=50             probe packets per second per pinger
//        --alpha, --beta      PMC configuration (default 2/1)
//        --seed
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/detector/system.h"
#include "src/routing/fattree_routing.h"
#include "src/sim/churn.h"
#include "src/topo/fattree.h"

namespace detector {
namespace {

std::vector<double> ParseRates(const std::string& spec) {
  std::vector<double> rates;
  for (const std::string& token : bench::SplitList(spec)) {
    rates.push_back(std::strtod(token.c_str(), nullptr));
  }
  return rates;
}

}  // namespace
}  // namespace detector

int main(int argc, char** argv) {
  using namespace detector;
  Flags flags;
  flags.Describe("rates", "comma-separated link churn events/minute (default 0,3,6,12,30)");
  flags.Describe("trials", "windows per churn rate (default 10)");
  flags.Describe("k", "fat-tree arity (default 8)");
  flags.Describe("pps", "probe packets per second per pinger (default 50)");
  flags.Describe("alpha", "coverage target (default 2)");
  flags.Describe("beta", "identifiability target (default 1)");
  flags.Describe("seed", "rng seed (default 23)");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }
  if (flags.Has("help")) {
    std::printf("%s", flags.HelpText(argv[0]).c_str());
    return 0;
  }
  const std::vector<double> rates = ParseRates(flags.GetString("rates", "0,3,6,12,30"));
  const int trials = std::max(1, static_cast<int>(flags.GetInt("trials", 10)));
  const int k = static_cast<int>(flags.GetInt("k", 8));
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 23)));

  bench::PrintHeader(
      "Churn sweep — localization quality vs topology-churn rate, Fattree(" +
          std::to_string(k) + "), 1 injected failure/window",
      "Churn events apply mid-window (incremental repair + in-place pinglist updates +\n"
      "slot invalidation); switch churn runs at 1/10th of the link rate. Ground truth is the\n"
      "injected failure; a churn outage that swallows it counts against accuracy.");

  const FatTree ft(k);
  const FatTreeRouting routing(ft);
  DetectorSystemOptions options;
  options.pmc.alpha = static_cast<int>(flags.GetInt("alpha", 2));
  options.pmc.beta = static_cast<int>(flags.GetInt("beta", 1));
  options.controller.packets_per_second =
      static_cast<double>(flags.GetInt("pps", 50));
  DetectorSystem system(routing, options);
  const FailureModel model(ft.topology(), FailureModelOptions{});

  TablePrinter table({"events/min", "accuracy %", "false pos %", "false neg %",
                      "churn/window", "probes/window"});
  for (const double rate : rates) {
    ChurnOptions churn_options;
    churn_options.link_events_per_minute = rate;
    churn_options.node_events_per_minute = rate / 10.0;
    churn_options.mean_outage_seconds = 10.0;
    const ChurnGenerator generator(ft.topology(), churn_options);

    ConfusionCounts counts;
    size_t events = 0;
    int64_t probes = 0;
    for (int t = 0; t < trials; ++t) {
      const FailureScenario scenario = model.SampleLinkFailures(1, rng);
      const auto trace =
          rate > 0.0 ? generator.Sample(options.window_seconds, rng)
                     : std::vector<ChurnEvent>{};
      const auto in_window = WindowSlice(trace, 0.0, options.window_seconds);
      const auto window = system.RunWindowStreaming(scenario, in_window, rng).window;
      counts += EvaluateLocalization(window.localization.links, scenario.FailedLinks());
      events += window.churn_events_applied;
      probes += window.probes_sent;
      // Recovery events beyond the window restore the overlay for the next trial.
      for (const ChurnEvent& ev : WindowSlice(trace, options.window_seconds, 1e300)) {
        system.ApplyTopologyDelta(ev.delta);
      }
    }
    table.AddRow({TablePrinter::Fmt(rate, 1), TablePrinter::Fmt(counts.Accuracy() * 100, 1),
                  TablePrinter::Fmt(counts.FalsePositiveRatio() * 100, 1),
                  TablePrinter::Fmt(counts.FalseNegativeRatio() * 100, 1),
                  TablePrinter::Fmt(static_cast<double>(events) / trials, 1),
                  TablePrinter::FmtInt(probes / trials)});
  }
  table.Print();
  std::printf("\noverlay dead links after sweep: %zu (0 = every outage recovered)\n",
              system.overlay().NumDeadLinks());
  return system.overlay().NumDeadLinks() == 0 ? 0 : 2;
}
