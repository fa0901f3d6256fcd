// Churn runtime benchmark: incremental probe-matrix repair (IncrementalPmc::ApplyDelta) vs a
// from-scratch PMC rebuild on the post-churn topology (IncrementalPmc::FullResolve), for
// single-link failure deltas and for whole-switch deltas.
//
// There is no paper counterpart — the paper re-runs PMC every 10-minute cycle (§3.1) and
// Table 2 prices exactly that from-scratch cost. This bench quantifies what the churn pipeline
// buys on top: per-delta repair restricted to the touched decomposition component, which must
// come out >= 10x cheaper than the rebuild for single-link deltas on fat-tree k=16.
//
// Flags: --scale=small|paper  (small: k=8/16 full enumeration; paper adds k=24 symmetry-reduced)
//        --deltas=N           (churn trials per row, default 20)
//        --alpha, --beta      (PMC configuration, default 1/1)
//        --seed
#include <algorithm>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/pmc/incremental.h"
#include "src/routing/fattree_routing.h"
#include "src/sim/churn.h"
#include "src/topo/delta.h"
#include "src/topo/fattree.h"

namespace detector {
namespace {

struct RowResult {
  std::string name;
  uint64_t candidates = 0;
  double initial_seconds = 0.0;
  double mean_repair_seconds = 0.0;
  double max_repair_seconds = 0.0;
  double mean_rebuild_seconds = 0.0;
  double mean_speedup = 0.0;
  double min_speedup = 0.0;
  uint64_t mean_dropped = 0;
  uint64_t mean_added = 0;
  bool invariants_held = true;
};

// One topology row: repeated (link down -> measure repair; measure full rebuild; link up ->
// repair again) trials. The rebuild is measured *after* the down-repair on the identical live
// topology, so both solvers answer the same question.
RowResult RunRow(const std::string& name, const FatTree& ft, PathEnumMode mode, int alpha,
                 int beta, int deltas, Rng& rng) {
  RowResult row;
  row.name = name;
  const FatTreeRouting routing(ft);
  PmcOptions options;
  options.alpha = alpha;
  options.beta = beta;

  WallTimer timer;
  IncrementalPmc inc(ft.topology(), routing.Enumerate(mode), options);
  row.initial_seconds = timer.ElapsedSeconds();
  row.candidates = inc.candidates().size();
  LinkStateOverlay overlay(ft.topology());

  const std::vector<LinkId> monitored = ft.topology().MonitoredLinks();
  double sum_repair = 0.0;
  double sum_rebuild = 0.0;
  double sum_speedup = 0.0;
  row.min_speedup = 1e300;
  uint64_t sum_dropped = 0;
  uint64_t sum_added = 0;

  for (int t = 0; t < deltas; ++t) {
    const LinkId victim = monitored[rng.NextBounded(monitored.size())];

    const auto down = inc.ApplyDelta(overlay.Apply(TopologyDelta::LinkDown(victim)));
    row.invariants_held = row.invariants_held && down.stats.alpha_satisfied;
    sum_repair += down.stats.seconds;
    row.max_repair_seconds = std::max(row.max_repair_seconds, down.stats.seconds);
    sum_dropped += down.stats.dropped_paths;
    sum_added += down.stats.added_paths;

    // The expensive alternative, on the identical post-churn topology.
    const PmcStats rebuild = inc.FullResolve();
    row.invariants_held = row.invariants_held && rebuild.alpha_satisfied;
    sum_rebuild += rebuild.seconds;
    const double speedup = rebuild.seconds / std::max(down.stats.seconds, 1e-9);
    sum_speedup += speedup;
    row.min_speedup = std::min(row.min_speedup, speedup);

    // Restore for the next trial (repair also re-covers the revived link).
    const auto up = inc.ApplyDelta(overlay.Apply(TopologyDelta::LinkUp(victim)));
    row.invariants_held = row.invariants_held && up.stats.alpha_satisfied;
  }
  row.mean_repair_seconds = sum_repair / deltas;
  row.mean_rebuild_seconds = sum_rebuild / deltas;
  row.mean_speedup = sum_speedup / deltas;
  row.mean_dropped = sum_dropped / static_cast<uint64_t>(deltas);
  row.mean_added = sum_added / static_cast<uint64_t>(deltas);
  return row;
}

// Switch-down churn (every incident link at once) on the largest small-scale instance: the
// worst single-event delta the generator emits.
void RunSwitchChurn(const FatTree& ft, int alpha, int beta, int deltas, Rng& rng) {
  const FatTreeRouting routing(ft);
  PmcOptions options;
  options.alpha = alpha;
  options.beta = beta;
  IncrementalPmc inc(ft.topology(), routing.Enumerate(PathEnumMode::kFull), options);
  LinkStateOverlay overlay(ft.topology());

  const std::vector<NodeId> aggs = ft.topology().NodesOfKind(NodeKind::kAgg);
  TablePrinter table({"event", "repair ms", "rebuild ms", "speedup", "dropped", "added",
                      "components"});
  for (int t = 0; t < deltas; ++t) {
    const NodeId victim = aggs[rng.NextBounded(aggs.size())];
    const auto down = inc.ApplyDelta(overlay.Apply(TopologyDelta::NodeDown(victim)));
    const PmcStats rebuild = inc.FullResolve();
    table.AddRow({"agg-down " + ft.topology().node(victim).name,
                  TablePrinter::Fmt(down.stats.seconds * 1e3, 2),
                  TablePrinter::Fmt(rebuild.seconds * 1e3, 2),
                  TablePrinter::Fmt(rebuild.seconds / std::max(down.stats.seconds, 1e-9), 1),
                  TablePrinter::FmtInt(static_cast<int64_t>(down.stats.dropped_paths)),
                  TablePrinter::FmtInt(static_cast<int64_t>(down.stats.added_paths)),
                  TablePrinter::FmtInt(down.stats.touched_components)});
    inc.ApplyDelta(overlay.Apply(TopologyDelta::NodeUp(victim)));
  }
  table.Print();
}

}  // namespace
}  // namespace detector

int main(int argc, char** argv) {
  using namespace detector;
  Flags flags;
  flags.Describe("scale", "small (k=8/16 full) or paper (adds k=24 symmetry-reduced)");
  flags.Describe("deltas", "churn trials per topology row (default 20)");
  flags.Describe("alpha", "coverage target (default 1)");
  flags.Describe("beta", "identifiability target (default 1)");
  flags.Describe("seed", "rng seed (default 1)");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }
  if (flags.Has("help")) {
    std::printf("%s", flags.HelpText(argv[0]).c_str());
    return 0;
  }
  const std::string scale = flags.GetString("scale", "small");
  const int deltas = std::max(1, static_cast<int>(flags.GetInt("deltas", 20)));
  const int alpha = static_cast<int>(flags.GetInt("alpha", 1));
  const int beta = static_cast<int>(flags.GetInt("beta", 1));
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 1)));

  bench::PrintHeader(
      "Churn runtime: incremental repair vs from-scratch PMC rebuild",
      "Single-link failure deltas; repair = IncrementalPmc::ApplyDelta (component-restricted\n"
      "greedy), rebuild = full PMC on the post-churn topology. alpha=" +
          std::to_string(alpha) + ", beta=" + std::to_string(beta) +
          ". Acceptance: speedup >= 10x at fat-tree k=16.");

  struct Spec {
    std::string name;
    int k;
    PathEnumMode mode;
  };
  std::vector<Spec> specs = {{"Fattree(8) full", 8, PathEnumMode::kFull},
                             {"Fattree(16) full", 16, PathEnumMode::kFull}};
  if (scale == "paper") {
    specs.push_back({"Fattree(24) sym-reduced", 24, PathEnumMode::kSymmetryReduced});
  }

  TablePrinter table({"topology", "candidates", "initial s", "repair ms (mean/max)",
                      "rebuild ms", "speedup (mean/min)", "drop", "add", "ok"});
  bool k16_pass = false;
  for (const Spec& spec : specs) {
    const FatTree ft(spec.k);
    const RowResult row = RunRow(spec.name, ft, spec.mode, alpha, beta, deltas, rng);
    table.AddRow({row.name, TablePrinter::FmtInt(static_cast<int64_t>(row.candidates)),
                  TablePrinter::Fmt(row.initial_seconds, 2),
                  TablePrinter::Fmt(row.mean_repair_seconds * 1e3, 3) + "/" +
                      TablePrinter::Fmt(row.max_repair_seconds * 1e3, 3),
                  TablePrinter::Fmt(row.mean_rebuild_seconds * 1e3, 1),
                  TablePrinter::Fmt(row.mean_speedup, 1) + "/" +
                      TablePrinter::Fmt(row.min_speedup, 1),
                  TablePrinter::FmtInt(static_cast<int64_t>(row.mean_dropped)),
                  TablePrinter::FmtInt(static_cast<int64_t>(row.mean_added)),
                  row.invariants_held ? "yes" : "NO"});
    if (spec.k == 16) {
      k16_pass = row.invariants_held && row.mean_speedup >= 10.0;
      std::printf("fat-tree k=16 single-link delta: mean speedup %.1fx (min %.1fx) — %s\n",
                  row.mean_speedup, row.min_speedup,
                  k16_pass ? "PASS (>= 10x, invariants held)" : "FAIL");
    }
  }
  table.Print();

  std::printf("\nSwitch-down deltas (fat-tree k=8, full enumeration):\n");
  RunSwitchChurn(FatTree(8), alpha, beta, std::min(deltas, 8), rng);
  return k16_pass ? 0 : 2;
}
