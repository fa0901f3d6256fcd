// Micro-benchmarks (google-benchmark) for the hot paths: path enumeration, PMC construction,
// PLL solving, ECMP routing, probe simulation, and pinglist XML serving — the last one
// reproduces the §6.1 controller claim (4473 pinglist requests/second on one core).
#include <benchmark/benchmark.h>

#include "src/detector/controller.h"
#include "src/localize/pll.h"
#include "src/pmc/pmc.h"
#include "src/pmc/structured_fattree.h"
#include "src/routing/ecmp.h"
#include "src/routing/fattree_routing.h"
#include "src/sim/failure_model.h"
#include "src/sim/probe_engine.h"
#include "src/sim/watchdog.h"

namespace detector {
namespace {

void BM_FatTreeEnumerateFull(benchmark::State& state) {
  const FatTree ft(static_cast<int>(state.range(0)));
  const FatTreeRouting routing(ft);
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing.Enumerate(PathEnumMode::kFull));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(routing.TotalPathCount()));
}
BENCHMARK(BM_FatTreeEnumerateFull)->Arg(8)->Arg(12)->Unit(benchmark::kMillisecond);

void BM_PmcBuild(benchmark::State& state) {
  const FatTree ft(static_cast<int>(state.range(0)));
  const FatTreeRouting routing(ft);
  const PathStore candidates = routing.Enumerate(PathEnumMode::kFull);
  PmcOptions options;
  options.alpha = 2;
  options.beta = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BuildProbeMatrixFromCandidates(ft.topology(), candidates, options));
  }
}
BENCHMARK(BM_PmcBuild)->Arg(8)->Arg(12)->Unit(benchmark::kMillisecond);

void BM_StructuredGenerate(benchmark::State& state) {
  const FatTree ft(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(StructuredFatTreeProbeMatrix(ft, 1, 2));
  }
}
BENCHMARK(BM_StructuredGenerate)->Arg(16)->Arg(48)->Unit(benchmark::kMillisecond);

void BM_PllLocalize(benchmark::State& state) {
  const FatTree ft(static_cast<int>(state.range(0)));
  ProbeMatrix matrix = StructuredFatTreeProbeMatrix(ft, 1, 2);
  FailureModelOptions fm_options;
  fm_options.min_loss_rate = 1e-3;
  FailureModel model(ft.topology(), fm_options);
  Rng rng(1);
  const FailureScenario scenario = model.SampleLinkFailures(10, rng);
  ProbeEngine engine(ft.topology(), scenario, ProbeConfig{});
  Observations obs(matrix.NumPaths());
  for (size_t p = 0; p < matrix.NumPaths(); ++p) {
    const PathId pid = static_cast<PathId>(p);
    obs[p] = engine.SimulatePath(matrix.paths().Links(pid), matrix.paths().src(pid),
                                 matrix.paths().dst(pid), 300, rng);
  }
  const PllLocalizer pll;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pll.Localize(matrix, obs));
  }
}
BENCHMARK(BM_PllLocalize)->Arg(18)->Arg(48)->Unit(benchmark::kMillisecond);

void BM_EcmpPath(benchmark::State& state) {
  const FatTree ft(16);
  uint16_t port = 0;
  for (auto _ : state) {
    FlowKey key{ft.Server(0, 0, 0), ft.Server(9, 3, 2), ++port, 2000, 17};
    benchmark::DoNotOptimize(FatTreeEcmpPath(ft, key));
  }
}
BENCHMARK(BM_EcmpPath);

void BM_SimulatePathWindow(benchmark::State& state) {
  const FatTree ft(8);
  FailureModelOptions fm_options;
  FailureModel model(ft.topology(), fm_options);
  Rng rng(2);
  const FailureScenario scenario = model.SampleLinkFailures(5, rng);
  ProbeEngine engine(ft.topology(), scenario, ProbeConfig{});
  const std::vector<LinkId> path{ft.EdgeAggLink(0, 0, 0), ft.AggCoreLink(0, 0, 0),
                                 ft.AggCoreLink(1, 0, 0), ft.EdgeAggLink(1, 0, 0)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.SimulatePath(path, ft.Tor(0, 0), ft.Tor(1, 0), 300, rng));
  }
}
BENCHMARK(BM_SimulatePathWindow);

// One pinglist entry's probes on a healthy 4-link path: 1 packet per entry is steady-k32's
// shape and 3 is ingest-k16's. The draw comes from the healthy-path cache, decided by the
// first raw value of the stream nearly every time.
void BM_SimulatePathHealthy(benchmark::State& state) {
  const FatTree ft(8);
  const ProbeEngine engine(ft.topology(), FailureScenario{}, ProbeConfig{});
  const std::vector<LinkId> path{ft.EdgeAggLink(0, 0, 0), ft.AggCoreLink(0, 0, 0),
                                 ft.AggCoreLink(1, 0, 0), ft.EdgeAggLink(1, 0, 0)};
  const int packets = static_cast<int>(state.range(0));
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.SimulatePath(path, ft.Server(0, 0, 0), ft.Server(1, 0, 0), packets, rng));
  }
}
BENCHMARK(BM_SimulatePathHealthy)->Arg(1)->Arg(3);

// Building an engine: the dense per-link failure table and the healthy-path thresholds, found
// by bisection for every cached (path length, per-flow count).
void BM_ProbeEngineBuild(benchmark::State& state) {
  const FatTree ft(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ProbeEngine(ft.topology(), FailureScenario{}, ProbeConfig{}));
  }
}
BENCHMARK(BM_ProbeEngineBuild)->Unit(benchmark::kMicrosecond);

// §6.1: the controller serves pinglist files over HTTP; serialization dominates. The paper
// measured 4473 requests/s on one core.
void BM_PinglistServe(benchmark::State& state) {
  const FatTree ft(8);
  const FatTreeRouting routing(ft);
  PmcOptions pmc;
  pmc.alpha = 2;
  pmc.beta = 1;
  const ProbeMatrix matrix = BuildProbeMatrix(routing, PathEnumMode::kFull, pmc).matrix;
  Watchdog wd(ft.topology());
  Controller controller(ft.topology(), ControllerOptions{});
  const std::vector<Pinglist> lists = controller.BuildPinglists(matrix, wd);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lists[i % lists.size()].ToXml());
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PinglistServe);

void BM_PinglistParse(benchmark::State& state) {
  const FatTree ft(8);
  const FatTreeRouting routing(ft);
  PmcOptions pmc;
  pmc.alpha = 2;
  pmc.beta = 1;
  const ProbeMatrix matrix = BuildProbeMatrix(routing, PathEnumMode::kFull, pmc).matrix;
  Watchdog wd(ft.topology());
  Controller controller(ft.topology(), ControllerOptions{});
  const std::string xml = controller.BuildPinglists(matrix, wd).front().ToXml();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Pinglist::FromXml(xml));
  }
}
BENCHMARK(BM_PinglistParse);

}  // namespace
}  // namespace detector
