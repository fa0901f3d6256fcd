// Shared helpers for the per-table/per-figure benchmark binaries. Each bench prints the same
// rows/series its paper counterpart reports, with the paper's reported values alongside where
// applicable, and accepts --scale=small|paper plus experiment-specific flags.
#ifndef BENCH_HARNESS_H_
#define BENCH_HARNESS_H_

#include <cstdio>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/common/timer.h"
#include "src/localize/metrics.h"
#include "src/localize/pll.h"
#include "src/pmc/probe_matrix.h"
#include "src/sim/failure_model.h"
#include "src/sim/probe_engine.h"

namespace detector {
namespace bench {

inline void PrintHeader(const std::string& title, const std::string& notes) {
  std::printf("\n=== %s ===\n", title.c_str());
  if (!notes.empty()) {
    std::printf("%s\n", notes.c_str());
  }
  std::printf("\n");
}

// Splits a comma-separated flag value ("1,2,8" / "0,3.5,12") into tokens; empty tokens are
// dropped. Callers convert each token with strtod/strtoull as needed.
inline std::vector<std::string> SplitList(const std::string& spec) {
  std::vector<std::string> tokens;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t next = spec.find(',', pos);
    if (next == std::string::npos) {
      next = spec.size();
    }
    if (next > pos) {
      tokens.push_back(spec.substr(pos, next - pos));
    }
    pos = next + 1;
  }
  return tokens;
}

// Simulates one observation window over every path of the probe matrix.
inline Observations SimulateWindow(const ProbeMatrix& matrix, const ProbeEngine& engine,
                                   int packets_per_path, Rng& rng) {
  Observations obs(matrix.NumPaths());
  for (size_t p = 0; p < matrix.NumPaths(); ++p) {
    const PathId pid = static_cast<PathId>(p);
    obs[p] = engine.SimulatePath(matrix.paths().Links(pid), matrix.paths().src(pid),
                                 matrix.paths().dst(pid), packets_per_path, rng);
  }
  return obs;
}

struct TrialResult {
  ConfusionCounts counts;
  double localize_seconds = 0.0;  // mean per trial
};

// Monte-Carlo localization trials: `trials` random scenarios with `num_failures` failed links
// each, PLL over one observation window per scenario.
inline TrialResult RunPllTrials(const Topology& topo, const ProbeMatrix& matrix,
                                const FailureModel& model, int num_failures, int trials,
                                int packets_per_path, Rng& rng,
                                const PllOptions& pll_options = PllOptions{},
                                const ProbeConfig& probe = ProbeConfig{}) {
  TrialResult result;
  PllLocalizer pll(pll_options);
  double total_seconds = 0.0;
  for (int t = 0; t < trials; ++t) {
    const FailureScenario scenario = model.SampleLinkFailures(num_failures, rng);
    ProbeEngine engine(topo, scenario, probe);
    const Observations obs = SimulateWindow(matrix, engine, packets_per_path, rng);
    const LocalizeResult localized = pll.Localize(matrix, obs);
    total_seconds += localized.seconds;
    result.counts += EvaluateLocalization(localized.links, scenario.FailedLinks());
  }
  result.localize_seconds = trials > 0 ? total_seconds / trials : 0.0;
  return result;
}

}  // namespace bench
}  // namespace detector

#endif  // BENCH_HARNESS_H_
