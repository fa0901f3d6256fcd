// Collector-fabric benchmark (PR 6): how far the analyzer-side ingest scales out.
//
//  (A) Sharded ingest: a pre-encoded frame storm drains through K pinger-affine ingest
//      shards on K concurrent threads — obs/s, per-thread obs/s, and speedup vs K=1, with
//      totals checked bit-identical to the serial fold at every K (exit 2 on mismatch, any
//      host). The >= 3x @ 8 shards scaling gate needs real cores: enforced with
//      --strict-gate, printed-and-skipped on < 8-core hosts.
//  (B) Collector fabric: the same storm partitioned over N collector instances
//      (PartitionMap routing), each draining on its own thread into the one shared store —
//      obs/s and exactness vs N=1, plus the misroute counter (must stay 0).
//
// Flags: --pingers=64 --frames=200 --batch=32   frame-storm shape (per-pinger frames)
//        --shards=1,2,4,8                       ingest-shard sweep for part A
//        --collectors=1,2,4                     fabric width sweep for part B
//        --repeat=3                             storm timing repetitions (best-of)
//        --strict-gate                          exit 2 if the 8-shard >= 3x gate cannot run
//        --seed
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "src/report/codec.h"
#include "src/report/collector.h"
#include "src/report/collector_group.h"
#include "src/report/partition.h"
#include "src/sim/watchdog.h"

namespace detector {
namespace {

constexpr size_t kStormSlots = 4096;

// A storm shaped like segment reports: each pinger emits `frames` delta batches of `batch`
// observations over a shared slot space, all in window 1.
std::vector<std::vector<uint8_t>> BuildStorm(size_t pingers, size_t frames, size_t batch,
                                             uint64_t seed, size_t* total_obs) {
  Rng rng(seed);
  std::vector<std::vector<uint8_t>> storm;
  storm.reserve(pingers * frames);
  *total_obs = 0;
  for (size_t p = 0; p < pingers; ++p) {
    PathId slot = static_cast<PathId>(rng.NextBounded(kStormSlots));
    for (size_t f = 0; f < frames; ++f) {
      ReportFrame frame;
      frame.pinger = static_cast<NodeId>(100 + p);
      frame.window_id = 1;
      frame.seq = f;
      for (size_t i = 0; i < batch; ++i) {
        slot = static_cast<PathId>((slot + 1 + static_cast<PathId>(rng.NextBounded(8))) %
                                   kStormSlots);
        const int64_t sent = 50 + static_cast<int64_t>(rng.NextBounded(400));
        const int64_t lost =
            rng.NextBounded(10) == 0 ? static_cast<int64_t>(rng.NextBounded(32)) : 0;
        frame.paths.push_back(
            WirePathDelta{slot, 0, static_cast<NodeId>(rng.NextBounded(65536)), sent, lost});
        ++*total_obs;
      }
      storm.push_back({});
      ReportCodec::Encode(frame, storm.back());
    }
  }
  return storm;
}

Observations StoreTotals(ObservationStore& store) {
  const Topology empty_topo("none");
  Watchdog wd(empty_topo);
  const ObservationView view = store.RunningTotals(kStormSlots, wd);
  return Observations(view.begin(), view.end());
}

bool SameTotals(const Observations& a, const Observations& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].sent != b[i].sent || a[i].lost != b[i].lost) {
      return false;
    }
  }
  return true;
}

struct StormRun {
  double seconds = 0.0;
  Observations totals;
  CollectorStats stats;
};

// Pre-fills K shard queues with the storm, then times K threads draining them concurrently.
StormRun DrainStormSharded(const std::vector<std::vector<uint8_t>>& storm, size_t shards,
                           int repeat) {
  StormRun out;
  out.seconds = 1e100;
  for (int r = 0; r < repeat; ++r) {
    ObservationStore store;
    store.EnsureSlots(kStormSlots);
    Collector collector(store, CollectorOptions{.ingest_shards = shards, .key = {}});
    collector.BeginWindow(1);
    for (const auto& wire : storm) {
      collector.OfferUnbounded(wire);
    }
    WallTimer timer;
    if (shards == 1) {
      collector.Drain();
    } else {
      std::vector<std::thread> drain_threads;
      drain_threads.reserve(shards);
      for (size_t s = 0; s < shards; ++s) {
        drain_threads.emplace_back([&collector, s] { collector.DrainShardRange(s, s + 1); });
      }
      for (auto& t : drain_threads) {
        t.join();
      }
    }
    out.seconds = std::min(out.seconds, timer.ElapsedSeconds());
    if (r == repeat - 1) {
      out.totals = StoreTotals(store);
      out.stats = collector.stats();
    }
  }
  return out;
}

// Routes the storm over N collectors by the partition map, then times N threads (one per
// collector) draining into the one shared store.
StormRun DrainStormFabric(const std::vector<std::vector<uint8_t>>& storm, size_t pingers,
                          size_t collectors, int repeat) {
  std::vector<NodeId> fleet;
  for (size_t p = 0; p < pingers; ++p) {
    fleet.push_back(static_cast<NodeId>(100 + p));
  }
  StormRun out;
  out.seconds = 1e100;
  for (int r = 0; r < repeat; ++r) {
    ObservationStore store;
    store.EnsureSlots(kStormSlots);
    CollectorGroupOptions options;
    options.num_collectors = collectors;
    CollectorGroup group(store, PartitionMap::Build(fleet, collectors), options);
    group.BeginWindow(1);
    for (const auto& wire : storm) {
      NodeId pinger = kInvalidNode;
      ReportCodec::PeekPinger(wire, pinger);
      group.collector(static_cast<size_t>(group.RouteOf(pinger))).OfferUnbounded(wire);
    }
    WallTimer timer;
    std::vector<std::thread> drain_threads;
    drain_threads.reserve(collectors);
    for (size_t c = 0; c < collectors; ++c) {
      drain_threads.emplace_back([&group, c] { group.collector(c).Drain(); });
    }
    for (auto& t : drain_threads) {
      t.join();
    }
    out.seconds = std::min(out.seconds, timer.ElapsedSeconds());
    if (r == repeat - 1) {
      out.totals = StoreTotals(store);
      out.stats = group.stats();
    }
  }
  return out;
}

}  // namespace
}  // namespace detector

int main(int argc, char** argv) {
  using namespace detector;
  Flags flags;
  flags.Describe("pingers", "reporting pingers in the frame storm (default 64)");
  flags.Describe("frames", "frames per pinger (default 200)");
  flags.Describe("batch", "observations per frame (default 32)");
  flags.Describe("shards", "comma-separated ingest-shard counts (default 1,2,4,8)");
  flags.Describe("collectors", "comma-separated fabric widths (default 1,2,4)");
  flags.Describe("repeat", "storm timing repetitions, best-of (default 3)");
  flags.Describe("strict-gate", "exit 2 if the 8-shard >= 3x scaling gate cannot run");
  flags.Describe("seed", "rng seed (default 1)");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }
  if (flags.Has("help")) {
    std::printf("%s", flags.HelpText(argv[0]).c_str());
    return 0;
  }
  const size_t pingers = static_cast<size_t>(flags.GetInt("pingers", 64));
  const size_t frames = static_cast<size_t>(flags.GetInt("frames", 200));
  const size_t batch = static_cast<size_t>(flags.GetInt("batch", 32));
  const int repeat = std::max(1, static_cast<int>(flags.GetInt("repeat", 3)));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const unsigned cores = std::thread::hardware_concurrency();

  bench::PrintHeader(
      "Collector fabric: sharded ingest, multi-collector partitioning",
      "One frame storm, two scale-out axes: K pinger-affine ingest shards drained\n"
      "concurrently inside one collector, and N partitioned collector instances folding into\n"
      "one shared store. Exactness is gated everywhere; scaling only where the host has\n"
      "cores.");

  size_t total_obs = 0;
  const auto storm = BuildStorm(pingers, frames, batch, seed, &total_obs);
  std::printf("storm: %zu pingers x %zu frames x %zu obs = %zu frames / %zu observations\n\n",
              pingers, frames, batch, storm.size(), total_obs);

  // ---- (A) sharded ingest scaling --------------------------------------------------------
  Observations baseline;
  double baseline_seconds = 0.0;
  double speedup_at_8 = 0.0;
  bool exact = true;
  TablePrinter shard_table(
      {"ingest shards", "drain s", "M obs/s", "M obs/s/thread", "speedup", "exact"});
  for (const std::string& token : bench::SplitList(flags.GetString("shards", "1,2,4,8"))) {
    const size_t shards = static_cast<size_t>(std::strtoull(token.c_str(), nullptr, 10));
    if (shards == 0) {
      continue;
    }
    const StormRun run = DrainStormSharded(storm, shards, repeat);
    if (shards == 1 || baseline.empty()) {
      baseline = run.totals;
      baseline_seconds = run.seconds;
    }
    const bool same = SameTotals(run.totals, baseline) &&
                      run.stats.frames_folded == storm.size() &&
                      run.stats.decode_errors == 0;
    exact = exact && same;
    const double mobs = static_cast<double>(total_obs) / run.seconds / 1e6;
    const double speedup = baseline_seconds / run.seconds;
    if (shards == 8) {
      speedup_at_8 = speedup;
    }
    shard_table.AddRow({TablePrinter::FmtInt(static_cast<int64_t>(shards)),
                        TablePrinter::Fmt(run.seconds, 4), TablePrinter::Fmt(mobs, 2),
                        TablePrinter::Fmt(mobs / static_cast<double>(shards), 2),
                        TablePrinter::Fmt(speedup, 2) + "x", same ? "yes" : "NO"});
  }
  shard_table.Print();
  std::printf("\n");

  // ---- (B) collector fabric --------------------------------------------------------------
  Observations fabric_baseline;
  bool fabric_exact = true;
  TablePrinter fabric_table({"collectors", "drain s", "M obs/s", "misrouted", "exact"});
  for (const std::string& token : bench::SplitList(flags.GetString("collectors", "1,2,4"))) {
    const size_t n = static_cast<size_t>(std::strtoull(token.c_str(), nullptr, 10));
    if (n == 0) {
      continue;
    }
    const StormRun run = DrainStormFabric(storm, pingers, n, repeat);
    if (fabric_baseline.empty()) {
      fabric_baseline = run.totals;
    }
    const bool same = SameTotals(run.totals, fabric_baseline) &&
                      run.stats.frames_folded == storm.size() &&
                      run.stats.wrong_partition_dropped == 0;
    fabric_exact = fabric_exact && same;
    fabric_table.AddRow(
        {TablePrinter::FmtInt(static_cast<int64_t>(n)), TablePrinter::Fmt(run.seconds, 4),
         TablePrinter::Fmt(static_cast<double>(total_obs) / run.seconds / 1e6, 2),
         TablePrinter::FmtInt(static_cast<int64_t>(run.stats.wrong_partition_dropped)),
         same ? "yes" : "NO"});
  }
  fabric_table.Print();
  std::printf("\n");

  if (!exact || !fabric_exact) {
    std::printf("FAIL: sharded/fabric fold diverged from the serial fold\n");
    return 2;
  }

  // ---- the scaling gate ------------------------------------------------------------------
  const bool can_gate = cores >= 8;
  if (can_gate && speedup_at_8 > 0.0) {
    const bool pass = speedup_at_8 >= 3.0;
    std::printf("8-shard scaling gate: %.2fx vs 1 shard — %s (gate: >= 3x, %u cores)\n",
                speedup_at_8, pass ? "PASS" : "FAIL", cores);
    if (!pass) {
      return 2;
    }
  } else {
    std::printf("8-shard scaling gate: skipped (%s; %u cores)\n",
                can_gate ? "8 shards not in --shards sweep" : "host has < 8 cores", cores);
    if (flags.Has("strict-gate")) {
      std::printf("FAIL: --strict-gate requires the 8-shard gate to run\n");
      return 2;
    }
  }
  return 0;
}
