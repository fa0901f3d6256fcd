// Report-plane benchmark: (1) codec throughput — frames/s and observations/s for encode and
// decode, and bytes per observation for the varint wire format against a naive fixed-width
// layout, with an enforceable packing gate; (2) end-to-end — streaming diagnosis windows with
// shard reports riding the wire through an impairment schedule over the in-process loopback at
// a sweep of injected i.i.d. drop rates (with jitter reordering frames), reporting collector
// tolerance counters and whether the injected failure is still localized; plus the
// report-vs-direct bit-exactness check across thread counts.
//
// Flags: --observations=200000   synthetic observations for the codec measurement
//        --batch=64              observations per frame (codec and end-to-end)
//        --repeat=5              codec timing repetitions (best-of)
//        --size-gate             exit 2 unless varint packing beats fixed-width by >= 2x
//        --k=6                   fat-tree arity for the end-to-end part
//        --windows=2             streaming windows per fault rate
//        --pps=150               probe packets per second per pinger
//        --segments=6            probe slices per window
//        --rates=0,0.05,0.25     injected i.i.d. frame drop rates (with 4 ticks of jitter)
//        --threads=1,2,8         thread counts for the exactness check (exit 2 on divergence)
//        --hostile-gate          exit 2 unless the hardened plane holds under a hostile
//                                profile: seeded ~30% burst loss + reorder + duplication + 1%
//                                corruption must fold zero tampered/corrupt frames (exact
//                                per-cause accounting) and agree with direct mode's suspect
//                                set at every window end; plus lossless-impairment
//                                bit-identity across --threads
//        --seed
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/detector/system.h"
#include "src/net/impairment.h"
#include "src/net/loopback.h"
#include "src/report/codec.h"
#include "src/routing/fattree_routing.h"
#include "src/topo/fattree.h"

namespace detector {
namespace {

struct CodecNumbers {
  double encode_mobs_per_s = 0.0;
  double decode_mobs_per_s = 0.0;
  double encode_frames_per_s = 0.0;
  double wire_bytes_per_obs = 0.0;
  double fixed_bytes_per_obs = 0.0;
};

CodecNumbers MeasureCodec(size_t observations, size_t batch, int repeat, uint64_t seed) {
  // Synthetic but shaped like real traffic: clustered slots (delta-friendly), mostly-clean
  // counters with occasional losses.
  Rng rng(seed);
  std::vector<ReportFrame> frames;
  size_t total_obs = 0;
  PathId slot = 0;
  uint64_t seq = 0;
  while (total_obs < observations) {
    ReportFrame frame;
    frame.pinger = static_cast<NodeId>(rng.NextBounded(4096));
    frame.window_id = 3;
    frame.seq = seq++;
    for (size_t i = 0; i < batch && total_obs < observations; ++i, ++total_obs) {
      slot = static_cast<PathId>((slot + 1 + static_cast<PathId>(rng.NextBounded(8))) %
                                 2000000);
      const int64_t sent = 50 + static_cast<int64_t>(rng.NextBounded(400));
      const int64_t lost = rng.NextBounded(10) == 0
                               ? static_cast<int64_t>(rng.NextBounded(32))
                               : 0;
      frame.paths.push_back(WirePathDelta{slot, 0,
                                          static_cast<NodeId>(rng.NextBounded(65536)), sent,
                                          lost});
    }
    frames.push_back(std::move(frame));
  }

  CodecNumbers out;
  size_t wire_bytes = 0;
  size_t fixed_bytes = 0;
  std::vector<std::vector<uint8_t>> encoded(frames.size());
  double best_encode_s = 1e100;
  double best_decode_s = 1e100;
  for (int r = 0; r < repeat; ++r) {
    WallTimer encode_timer;
    for (size_t i = 0; i < frames.size(); ++i) {
      ReportCodec::Encode(frames[i], encoded[i]);
    }
    best_encode_s = std::min(best_encode_s, encode_timer.ElapsedSeconds());

    ReportFrame decoded;
    WallTimer decode_timer;
    for (const auto& wire : encoded) {
      if (ReportCodec::Decode(wire, decoded) != DecodeStatus::kOk) {
        std::fprintf(stderr, "FATAL: self-encoded frame failed to decode\n");
        std::exit(2);
      }
    }
    best_decode_s = std::min(best_decode_s, decode_timer.ElapsedSeconds());
  }
  for (size_t i = 0; i < frames.size(); ++i) {
    wire_bytes += encoded[i].size();
    fixed_bytes += ReportCodec::FixedWidthBytes(frames[i]);
  }
  out.encode_mobs_per_s = static_cast<double>(total_obs) / best_encode_s / 1e6;
  out.decode_mobs_per_s = static_cast<double>(total_obs) / best_decode_s / 1e6;
  out.encode_frames_per_s = static_cast<double>(frames.size()) / best_encode_s;
  out.wire_bytes_per_obs = static_cast<double>(wire_bytes) / static_cast<double>(total_obs);
  out.fixed_bytes_per_obs = static_cast<double>(fixed_bytes) / static_cast<double>(total_obs);
  return out;
}

}  // namespace
}  // namespace detector

int main(int argc, char** argv) {
  using namespace detector;
  Flags flags;
  flags.Describe("observations", "synthetic observations for the codec measurement");
  flags.Describe("batch", "observations per wire frame (default 64)");
  flags.Describe("repeat", "codec timing repetitions, best-of (default 5)");
  flags.Describe("size-gate", "exit 2 unless varint packing beats fixed-width by >= 2x");
  flags.Describe("k", "fat-tree arity for the end-to-end sweep (default 6)");
  flags.Describe("windows", "streaming windows per fault rate (default 2)");
  flags.Describe("pps", "probe packets per second per pinger (default 150)");
  flags.Describe("segments", "probe slices per window (default 6)");
  flags.Describe("rates", "comma-separated injected frame drop rates");
  flags.Describe("threads", "comma-separated thread counts for the exactness check");
  flags.Describe("hostile-gate",
                 "exit 2 unless the hardened plane holds under burst loss + reorder + "
                 "duplication + corruption (see header comment)");
  flags.Describe("seed", "rng seed (default 1)");
  if (!flags.Parse(argc, argv)) {
    return 1;
  }
  if (flags.Has("help")) {
    std::printf("%s", flags.HelpText(argv[0]).c_str());
    return 0;
  }
  const size_t observations =
      static_cast<size_t>(flags.GetInt("observations", 200000));
  const size_t batch = static_cast<size_t>(flags.GetInt("batch", 64));
  const int repeat = std::max(1, static_cast<int>(flags.GetInt("repeat", 5)));
  const int k = static_cast<int>(flags.GetInt("k", 6));
  const int windows = std::max(1, static_cast<int>(flags.GetInt("windows", 2)));
  const double pps = static_cast<double>(flags.GetInt("pps", 150));
  const int segments = std::max(1, static_cast<int>(flags.GetInt("segments", 6)));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));

  bench::PrintHeader(
      "Report plane: wire codec throughput + end-to-end streaming over a faulty channel",
      "Pinger shards encode (pinger, slot, epoch, sent, lost) delta batches into CRC-framed\n"
      "varint frames; the collector folds them into the ObservationStore idempotently by\n"
      "(pinger, window, seq). Lossless loopback is bit-identical to direct store writes;\n"
      "injected drop and jitter degrade coverage, never correctness.");

  // ---- Codec throughput + packing --------------------------------------------------------
  const CodecNumbers codec = MeasureCodec(observations, batch, repeat, seed);
  TablePrinter codec_table({"direction", "M obs/s", "frames/s", "bytes/obs"});
  codec_table.AddRow({"encode", TablePrinter::Fmt(codec.encode_mobs_per_s, 2),
                      TablePrinter::Fmt(codec.encode_frames_per_s, 0),
                      TablePrinter::Fmt(codec.wire_bytes_per_obs, 2)});
  codec_table.AddRow({"decode", TablePrinter::Fmt(codec.decode_mobs_per_s, 2), "-",
                      TablePrinter::Fmt(codec.wire_bytes_per_obs, 2)});
  codec_table.AddRow({"fixed-width baseline", "-", "-",
                      TablePrinter::Fmt(codec.fixed_bytes_per_obs, 2)});
  codec_table.Print();
  const double packing = codec.fixed_bytes_per_obs / codec.wire_bytes_per_obs;
  std::printf("varint packing: %.2fx smaller than fixed-width (%.2f vs %.2f bytes/obs)\n\n",
              packing, codec.wire_bytes_per_obs, codec.fixed_bytes_per_obs);

  // ---- End-to-end: streaming diagnosis over a faulty loopback ----------------------------
  const FatTree ft(k);
  const FatTreeRouting routing(ft);
  FailureScenario scenario;
  LinkFailure f;
  f.link = ft.AggCoreLink(0, 0, 0);
  f.type = FailureType::kFullLoss;
  scenario.failures.push_back(f);

  auto base_options = [&] {
    DetectorSystemOptions options;
    options.pmc.alpha = 1;
    options.pmc.beta = 1;
    options.controller.packets_per_second = pps;
    options.segments_per_window = segments;
    options.diagnose_every_segments = 2;
    options.probe_threads = 1;
    options.report_plane = true;
    options.report_batch_entries = batch;
    return options;
  };

  std::vector<double> rates;
  for (const std::string& token : bench::SplitList(flags.GetString("rates", "0,0.05,0.25"))) {
    rates.push_back(std::strtod(token.c_str(), nullptr));
  }
  TablePrinter e2e_table({"drop rate", "jitter ticks", "frames folded", "frames dropped",
                          "dup/stale/err", "localized", "first seen s"});
  for (const double rate : rates) {
    DetectorSystem system(routing, base_options());
    ImpairmentProfile profile;
    profile.burst_loss_rate = rate;
    profile.burst_length = 1;  // i.i.d. loss
    profile.jitter_ticks = 4;
    profile.seed = seed + 13;
    system.SetReportTransportFactory([&](size_t) {
      return std::make_unique<ImpairmentTransport>(std::make_unique<LoopbackTransport>(),
                                                   profile);
    });
    Rng rng(seed + 7);
    bool localized = false;
    double first_seen = -1.0;
    for (int w = 0; w < windows; ++w) {
      const auto streamed = system.RunWindowStreaming(scenario, {}, rng);
      for (const SuspectLink& s : streamed.window.localization.links) {
        localized |= s.link == f.link;
      }
      const double in_window = streamed.FirstDetectionSeconds(f.link);
      if (first_seen < 0.0 && in_window >= 0.0) {
        // Run-relative: a detection in a later window (heavy report loss) reads as late,
        // not as early as its within-window offset.
        first_seen = w * base_options().window_seconds + in_window;
      }
    }
    const CollectorStats stats = system.collector_group()->stats();
    const TransportStats wire = system.report_transport()->stats();
    e2e_table.AddRow(
        {TablePrinter::Fmt(rate, 2),
         TablePrinter::FmtInt(static_cast<int64_t>(profile.jitter_ticks)),
         TablePrinter::FmtInt(static_cast<int64_t>(stats.frames_folded)),
         TablePrinter::FmtInt(static_cast<int64_t>(wire.frames_dropped)),
         TablePrinter::FmtInt(static_cast<int64_t>(stats.duplicates_dropped)) + "/" +
             TablePrinter::FmtInt(static_cast<int64_t>(stats.stale_window_dropped)) + "/" +
             TablePrinter::FmtInt(static_cast<int64_t>(stats.decode_errors)),
         localized ? "yes" : "NO", TablePrinter::Fmt(first_seen, 1)});
  }
  e2e_table.Print();
  std::printf("\n");

  // ---- Report-vs-direct bit-exactness across thread counts -------------------------------
  bool all_identical = true;
  for (const std::string& token : bench::SplitList(flags.GetString("threads", "1,2,8"))) {
    const size_t threads = static_cast<size_t>(std::strtoull(token.c_str(), nullptr, 10));
    auto run = [&](bool report_plane) {
      DetectorSystemOptions options = base_options();
      options.report_plane = report_plane;
      options.probe_threads = threads;
      DetectorSystem system(routing, options);
      Rng rng(seed + 21);
      std::vector<DetectorSystem::WindowResult> out;
      for (int w = 0; w < windows; ++w) {
        out.push_back(system.RunWindowStreaming(scenario, {}, rng).window);
      }
      return out;
    };
    const auto direct = run(false);
    const auto report = run(true);
    bool identical = direct.size() == report.size();
    for (size_t w = 0; identical && w < direct.size(); ++w) {
      identical = direct[w].localization.links == report[w].localization.links &&
                  direct[w].server_link_alarms == report[w].server_link_alarms &&
                  direct[w].probes_sent == report[w].probes_sent &&
                  direct[w].bytes_sent == report[w].bytes_sent;
    }
    all_identical = all_identical && identical;
    std::printf("threads=%zu: report plane %s direct mode (lossless loopback)\n", threads,
                identical ? "bit-identical to" : "DIVERGES from");
  }
  if (!all_identical) {
    std::printf("\nFAIL: report-plane windows diverge from direct mode\n");
    return 2;
  }

  if (flags.Has("size-gate")) {
    const bool pass = packing >= 2.0;
    std::printf("\nvarint packing gate: %.2fx vs fixed-width — %s (gate: >= 2x)\n", packing,
                pass ? "PASS" : "FAIL");
    return pass ? 0 : 2;
  }

  // ---- Hostile gate: the hardened plane under a LinkEm-style impairment schedule ---------
  if (flags.Has("hostile-gate")) {
    bool gate_pass = true;

    // Part 1: the hostile profile — seeded bursty loss around 30% of frames (entry rate
    // 0.1 x run length 4), delay + jitter reordering, 5% duplication, 1% corruption.
    // Authentication and CRC must keep every damaged frame out of the store with exact
    // per-cause accounting, and the suspect set at each window end must agree with a direct
    // (no report plane) run.
    auto hostile_run = [&](bool report_plane) {
      DetectorSystemOptions options = base_options();
      options.report_plane = report_plane;
      DetectorSystem system(routing, options);
      if (report_plane) {
        system.SetReportTransportFactory([&](size_t i) -> std::unique_ptr<Transport> {
          ImpairmentProfile profile;
          profile.burst_loss_rate = 0.1;
          profile.burst_length = 4;
          profile.dup_rate = 0.05;
          profile.corrupt_rate = 0.01;
          profile.delay_ticks = 1;
          profile.jitter_ticks = 3;
          profile.seed = seed + 31 + i;
          return std::make_unique<ImpairmentTransport>(std::make_unique<LoopbackTransport>(),
                                                       profile);
        });
      }
      Rng rng(seed + 43);
      std::vector<std::vector<LinkId>> suspects;
      for (int w = 0; w < windows; ++w) {
        const auto streamed = system.RunWindowStreaming(scenario, {}, rng);
        std::vector<LinkId> links;
        for (const SuspectLink& s : streamed.window.localization.links) {
          links.push_back(s.link);
        }
        std::sort(links.begin(), links.end());
        suspects.push_back(std::move(links));
      }
      CollectorStats stats;
      uint64_t received = 0;
      uint64_t corrupted_in_flight = 0;
      if (report_plane) {
        stats = system.collector_group()->stats();
        for (size_t i = 0; system.report_transport(i) != nullptr; ++i) {
          auto* impaired = static_cast<ImpairmentTransport*>(system.report_transport(i));
          received += impaired->stats().frames_received;
          corrupted_in_flight += impaired->impairment_stats().frames_corrupted +
                                 impaired->impairment_stats().frames_truncated;
        }
      }
      return std::make_tuple(std::move(suspects), stats, received, corrupted_in_flight);
    };
    const auto [direct_suspects, unused_stats, unused_rx, unused_corrupt] = hostile_run(false);
    const auto [hostile_suspects, stats, received, corrupted] = hostile_run(true);
    (void)unused_stats;
    (void)unused_rx;
    (void)unused_corrupt;

    const uint64_t accounted = stats.frames_folded + stats.duplicates_dropped +
                               stats.decode_errors + stats.tampered_dropped +
                               stats.stale_window_dropped + stats.queue_overflow_dropped +
                               stats.wrong_partition_dropped;
    TablePrinter hostile_table({"metric", "value", "gate"});
    hostile_table.AddRow({"frames folded",
                          TablePrinter::FmtInt(static_cast<int64_t>(stats.frames_folded)),
                          "> 0"});
    hostile_table.AddRow({"corrupted in flight",
                          TablePrinter::FmtInt(static_cast<int64_t>(corrupted)), "> 0"});
    hostile_table.AddRow({"decode errors",
                          TablePrinter::FmtInt(static_cast<int64_t>(stats.decode_errors)),
                          "== corrupted arrivals"});
    hostile_table.AddRow({"tampered folds", "0",
                          stats.tampered_dropped == 0 ? "0 (same key)" : "VIOLATED"});
    hostile_table.Print();

    if (stats.frames_folded == 0 || corrupted == 0 || stats.decode_errors == 0) {
      std::printf("hostile gate: profile under-exercised (folded=%llu corrupted=%llu "
                  "decode_errors=%llu)\n",
                  static_cast<unsigned long long>(stats.frames_folded),
                  static_cast<unsigned long long>(corrupted),
                  static_cast<unsigned long long>(stats.decode_errors));
      gate_pass = false;
    }
    if (stats.tampered_dropped != 0) {
      std::printf("hostile gate: same-key fleet counted %llu tampered frames\n",
                  static_cast<unsigned long long>(stats.tampered_dropped));
      gate_pass = false;
    }
    if (accounted != received) {
      std::printf("hostile gate: accounting leak — %llu frames received, %llu accounted "
                  "(folded + per-cause drops)\n",
                  static_cast<unsigned long long>(received),
                  static_cast<unsigned long long>(accounted));
      gate_pass = false;
    }
    if (hostile_suspects != direct_suspects) {
      std::printf("hostile gate: suspect sets diverge from direct mode at a window end\n");
      gate_pass = false;
    } else {
      std::printf("suspect sets agree with direct mode at all %d window ends; "
                  "%llu of %llu received frames folded, every reject accounted by cause\n",
                  windows, static_cast<unsigned long long>(stats.frames_folded),
                  static_cast<unsigned long long>(received));
    }

    // Part 2: a lossless impairment schedule (delay + jitter + rate limiting + duplication —
    // nothing dropped or damaged) must stay bit-identical to direct mode at every thread
    // count, same as the plain loopback gate above.
    for (const std::string& token :
         bench::SplitList(flags.GetString("threads", "1,2,8"))) {
      const size_t threads = static_cast<size_t>(std::strtoull(token.c_str(), nullptr, 10));
      auto run = [&](bool report_plane) {
        DetectorSystemOptions options = base_options();
        options.report_plane = report_plane;
        options.probe_threads = threads;
        DetectorSystem system(routing, options);
        if (report_plane) {
          system.SetReportTransportFactory([&](size_t i) -> std::unique_ptr<Transport> {
            ImpairmentProfile profile;
            profile.delay_ticks = 2;
            profile.jitter_ticks = 4;
            profile.rate_limit_per_tick = 8;
            profile.dup_rate = 0.1;
            profile.seed = seed + 71 + i;
            return std::make_unique<ImpairmentTransport>(std::make_unique<LoopbackTransport>(),
                                                         profile);
          });
        }
        Rng rng(seed + 21);
        std::vector<DetectorSystem::WindowResult> out;
        for (int w = 0; w < windows; ++w) {
          out.push_back(system.RunWindowStreaming(scenario, {}, rng).window);
        }
        return out;
      };
      const auto direct = run(false);
      const auto report = run(true);
      bool identical = direct.size() == report.size();
      for (size_t w = 0; identical && w < direct.size(); ++w) {
        identical = direct[w].localization.links == report[w].localization.links &&
                    direct[w].server_link_alarms == report[w].server_link_alarms &&
                    direct[w].probes_sent == report[w].probes_sent &&
                    direct[w].bytes_sent == report[w].bytes_sent;
      }
      gate_pass = gate_pass && identical;
      std::printf("threads=%zu: lossless impairment schedule %s direct mode\n", threads,
                  identical ? "bit-identical to" : "DIVERGES from");
    }

    std::printf("\nhostile gate: %s\n", gate_pass ? "PASS" : "FAIL");
    return gate_pass ? 0 : 2;
  }
  return 0;
}
