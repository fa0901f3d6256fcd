// Fig 4 reproduction: sensitivity to the probe sending frequency on the 4-ary fat-tree
// "testbed" — (a) PLL accuracy / false positives, (b) pinger overhead, (c) workload RTT,
// (d) workload jitter, for 1..25 probes per second per pinger.
//
// (a) runs the full system per frequency over randomized single failures (the paper's per-
// minute random failure mix). (b) is a calibrated analytic model (bandwidth is exact
// arithmetic; CPU/memory follow the paper's measured linear trend: 10 pps ~ 0.4% CPU / 13 MB) —
// documented as modelled, not measured. (c)/(d) sample workload RTTs from the queueing latency
// model with the probe load added onto each link the probe matrix crosses.
#include "bench/harness.h"
#include "src/detector/system.h"
#include "src/pmc/pmc.h"
#include "src/routing/fattree_routing.h"
#include "src/sim/latency_model.h"
#include "src/sim/workload.h"

int main(int argc, char** argv) {
  using namespace detector;
  Flags flags;
  flags.Describe("trials", "Monte-Carlo trials per frequency (default 60)");
  flags.Describe("seed", "rng seed (default 11)");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }
  if (flags.Has("help")) {
    std::printf("%s", flags.HelpText(argv[0]).c_str());
    return 0;
  }
  const int trials = static_cast<int>(flags.GetInt("trials", 60));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 11));

  bench::PrintHeader("Fig 4 — probe-frequency sensitivity, Fattree(4) testbed",
                     "paper anchor points: 10-15 pps gives >95% accuracy, <3% FP, ~100 Kbps,\n"
                     "0.4% CPU, 13 MB per pinger, with no visible RTT/jitter impact.");

  const FatTree ft(4);
  const FatTreeRouting routing(ft);

  // (c)/(d) substrate: one workload draw, reused across frequencies.
  Rng workload_rng(seed);
  const WorkloadGenerator workload_gen(ft, WorkloadOptions{});
  const auto flows = workload_gen.Generate(workload_rng);
  const auto base_load = workload_gen.LinkLoadMbps(flows);
  const LatencyModel latency(LatencyModelOptions{});

  // Probe matrix used by the system at every frequency (alpha=3, beta=1 as in §6.3).
  PmcOptions pmc;
  pmc.alpha = 3;
  pmc.beta = 1;
  const PmcResult built = BuildProbeMatrix(routing, PathEnumMode::kFull, pmc);

  TablePrinter table({"pps/pinger", "accuracy %", "false pos %", "bw Kbps", "cpu %", "mem MB",
                      "RTT p50 us", "RTT p99 us", "jitter us"});

  FailureModelOptions fm_options;
  fm_options.min_loss_rate = 1e-3;
  const FailureModel model(ft.topology(), fm_options);

  for (const int pps : {1, 2, 5, 10, 15, 20, 25}) {
    // (a) accuracy/FP via the full pipeline at this rate.
    DetectorSystemOptions sys_options;
    sys_options.controller.packets_per_second = pps;
    DetectorSystem system(ft.topology(), built.matrix, sys_options);
    Rng rng(seed + static_cast<uint64_t>(pps));
    ConfusionCounts counts;
    for (int t = 0; t < trials; ++t) {
      const FailureScenario scenario = model.SampleLinkFailures(1, rng);
      const auto window = system.RunWindowStreaming(scenario, {}, rng).window;
      counts += EvaluateLocalization(window.localization.links, scenario.FailedLinks());
    }

    // (b) pinger overhead model: round trip = 2 packets of 850 B each way on the wire.
    const double bw_kbps = pps * 850.0 * 8.0 * 2.0 / 1000.0;
    const double cpu_pct = 0.04 * pps;
    const double mem_mb = 12.0 + 0.1 * pps;

    // (c)/(d): add the probe load onto every link the pinglists cross, then sample RTTs of
    // random workload flows.
    std::vector<double> load = base_load;
    const double probe_mbps = pps * 850.0 * 8.0 / 1e6;
    for (const Pinglist& list : system.pinglists()) {
      const double per_entry_mbps =
          list.entries.empty() ? 0.0 : probe_mbps / static_cast<double>(list.entries.size());
      for (const PinglistEntry& entry : list.entries) {
        for (LinkId l : entry.route) {
          load[static_cast<size_t>(l)] += per_entry_mbps;
        }
      }
    }
    std::vector<double> rtts;
    Rng lat_rng(seed * 31 + static_cast<uint64_t>(pps));
    for (int s = 0; s < 4000; ++s) {
      const WorkloadFlow& flow = flows[lat_rng.NextBounded(flows.size())];
      rtts.push_back(latency.SampleRttUs(flow.links, load, lat_rng));
    }
    OnlineStats jitter_stats;
    for (double r : rtts) {
      jitter_stats.Add(r);
    }
    table.AddRow({TablePrinter::FmtInt(pps), TablePrinter::FmtPercent(counts.Accuracy(), 1),
                  TablePrinter::FmtPercent(counts.FalsePositiveRatio(), 1),
                  TablePrinter::Fmt(bw_kbps, 1), TablePrinter::Fmt(cpu_pct, 2),
                  TablePrinter::Fmt(mem_mb, 1), TablePrinter::Fmt(Percentile(rtts, 50), 1),
                  TablePrinter::Fmt(Percentile(rtts, 99), 1),
                  TablePrinter::Fmt(jitter_stats.Stddev(), 1)});
  }
  table.Print();
  std::printf(
      "\nShape checks vs paper: accuracy saturates above ~95%% by 10-15 pps while FP drops\n"
      "below a few percent; overhead grows linearly but stays ~100 Kbps / <1%% CPU at the\n"
      "operating point; RTT and jitter are flat in the probing rate.\n");
  return 0;
}
