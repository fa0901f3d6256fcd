// History-plane tests (PR 9): the WindowLog on-disk format must fail loudly and recover at
// record boundaries (truncation at every byte offset, garbage-tail fuzz, version and key
// mismatch, reopen-and-append), retention must rotate and bound segments, and — the acceptance
// gate — replaying a logged window range through QueryEngine must reproduce the live run's
// suspect sets bit-identically at every diagnosis boundary, in direct and report-plane modes.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/rng.h"
#include "src/detector/system.h"
#include "src/history/query.h"
#include "src/history/window_log.h"
#include "src/history/window_sink.h"
#include "src/routing/fattree_routing.h"
#include "src/sim/churn.h"
#include "src/topo/fattree.h"
#include "tests/window_equality.h"

namespace detector {
namespace {

namespace fs = std::filesystem;

// Fresh empty directory under the system temp dir, unique per call within the process.
std::string TempLogDir(const std::string& tag) {
  static int counter = 0;
  const fs::path dir = fs::temp_directory_path() /
                       ("detector_history_" + tag + "_" + std::to_string(counter++));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

SealedWindow SampleWindow(uint64_t index) {
  SealedWindow w;
  w.window_index = index;
  w.num_slots = 900;
  w.churn_events = 2;
  w.dead_links = 1;
  w.probes_sent = 123456;
  w.bytes_sent = 123456 * 64;
  SealedBoundary b1;
  b1.segment = 2;
  b1.time_seconds = 10.0;
  b1.deltas.push_back(SealedDelta{3, 500, 12});
  b1.deltas.push_back(SealedDelta{7, 480, 0});
  b1.deltas.push_back(SealedDelta{899, 505, 505});
  b1.suspects.push_back(SuspectLink{/*link=*/11, /*estimated_loss_rate=*/0.25,
                                    /*hit_ratio=*/0.9, /*explained_losses=*/12});
  b1.alarms.push_back(ServerLinkAlarm{/*pinger=*/4, /*target=*/5, /*loss_ratio=*/1.0});
  SealedBoundary b2;
  b2.segment = 6;
  b2.time_seconds = 30.0;
  // Negative deltas: a watchdog flip retracting totals must survive the round trip.
  b2.deltas.push_back(SealedDelta{3, -500, -12});
  b2.deltas.push_back(SealedDelta{42, 1000, 3});
  w.boundaries.push_back(b1);
  w.boundaries.push_back(b2);
  return w;
}

TEST(WindowLogFormat, RecordRoundTrip) {
  const ReportKey key;
  for (const uint64_t index : {uint64_t{0}, uint64_t{7}, uint64_t{1} << 40}) {
    const SealedWindow w = SampleWindow(index);
    std::vector<uint8_t> bytes;
    EncodeWindowRecord(w, key, bytes);
    size_t pos = 0;
    SealedWindow back;
    ASSERT_EQ(DecodeWindowRecord(bytes, pos, key, back), WindowLogStatus::kOk);
    EXPECT_EQ(pos, bytes.size());
    EXPECT_EQ(back, w);
  }
  // Empty window (no boundaries) round-trips too.
  SealedWindow empty;
  empty.window_index = 3;
  std::vector<uint8_t> bytes;
  EncodeWindowRecord(empty, key, bytes);
  size_t pos = 0;
  SealedWindow back;
  ASSERT_EQ(DecodeWindowRecord(bytes, pos, key, back), WindowLogStatus::kOk);
  EXPECT_EQ(back, empty);
}

// Truncating the byte stream at every offset must either decode the full record (no
// truncation hit it) or report kTruncated with pos untouched — never crash, never
// half-decode.
TEST(WindowLogFormat, EveryTruncationRecoversAtTheRecordBoundary) {
  const ReportKey key;
  std::vector<uint8_t> bytes;
  EncodeWindowRecord(SampleWindow(1), key, bytes);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::span<const uint8_t> prefix(bytes.data(), cut);
    size_t pos = 0;
    SealedWindow out;
    EXPECT_EQ(DecodeWindowRecord(prefix, pos, key, out), WindowLogStatus::kTruncated)
        << "cut=" << cut;
    EXPECT_EQ(pos, 0u) << "cut=" << cut;
  }
}

// A multi-record segment truncated at every offset keeps exactly the whole-record prefix.
TEST(WindowLogFormat, SegmentTruncationKeepsWholeRecordPrefix) {
  const ReportKey key;
  std::vector<uint8_t> bytes(kSegmentHeader, kSegmentHeader + sizeof(kSegmentHeader));
  std::vector<size_t> record_ends;
  for (uint64_t i = 0; i < 3; ++i) {
    EncodeWindowRecord(SampleWindow(i), key, bytes);
    record_ends.push_back(bytes.size());
  }
  for (size_t cut = sizeof(kSegmentHeader); cut <= bytes.size(); ++cut) {
    size_t expect_records = 0;
    size_t expect_boundary = sizeof(kSegmentHeader);
    for (size_t i = 0; i < record_ends.size(); ++i) {
      if (record_ends[i] <= cut) {
        expect_records = i + 1;
        expect_boundary = record_ends[i];
      }
    }
    std::vector<SealedWindow> out;
    WindowLogStatus tail = WindowLogStatus::kOk;
    const size_t boundary =
        DecodeSegment(std::span<const uint8_t>(bytes.data(), cut), key, out, tail);
    EXPECT_EQ(out.size(), expect_records) << "cut=" << cut;
    EXPECT_EQ(boundary, expect_boundary) << "cut=" << cut;
    EXPECT_EQ(tail == WindowLogStatus::kOk, cut == expect_boundary) << "cut=" << cut;
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], SampleWindow(i));
    }
  }
}

// Deterministic garbage appended after valid records: the prefix always survives, the tail is
// never trusted, and nothing crashes regardless of what the bytes happen to look like.
TEST(WindowLogFormat, GarbageTailFuzz) {
  const ReportKey key;
  Rng rng(20250809);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> bytes(kSegmentHeader, kSegmentHeader + sizeof(kSegmentHeader));
    EncodeWindowRecord(SampleWindow(5), key, bytes);
    const size_t valid_end = bytes.size();
    const size_t garbage = 1 + rng.NextBounded(64);
    for (size_t i = 0; i < garbage; ++i) {
      bytes.push_back(static_cast<uint8_t>(rng.NextBounded(256)));
    }
    std::vector<SealedWindow> out;
    WindowLogStatus tail = WindowLogStatus::kOk;
    const size_t boundary = DecodeSegment(bytes, key, out, tail);
    ASSERT_GE(out.size(), 1u) << "trial=" << trial;
    EXPECT_EQ(out[0], SampleWindow(5)) << "trial=" << trial;
    EXPECT_EQ(boundary, valid_end) << "trial=" << trial;
    EXPECT_NE(tail, WindowLogStatus::kOk) << "trial=" << trial;
  }
}

// Every single-bit flip inside a record must be rejected — and classified, never half-parsed.
TEST(WindowLogFormat, EverySingleBitFlipIsRejected) {
  const ReportKey key;
  std::vector<uint8_t> clean;
  EncodeWindowRecord(SampleWindow(2), key, clean);
  for (size_t byte = 0; byte < clean.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> bytes = clean;
      bytes[byte] ^= static_cast<uint8_t>(1u << bit);
      size_t pos = 0;
      SealedWindow out;
      const WindowLogStatus status = DecodeWindowRecord(bytes, pos, key, out);
      // A flip inside the length varint can make the frame read as truncated; anything else
      // must fail magic, version, CRC, auth, or payload checks.
      EXPECT_NE(status, WindowLogStatus::kOk) << "byte=" << byte << " bit=" << bit;
      EXPECT_EQ(pos, 0u) << "byte=" << byte << " bit=" << bit;
    }
  }
}

TEST(WindowLogFormat, VersionAndKeyMismatchAreRejected) {
  const ReportKey key;
  std::vector<uint8_t> bytes;
  EncodeWindowRecord(SampleWindow(4), key, bytes);
  // Locate the frame start: the record begins with the length varint.
  size_t cursor = 0;
  uint64_t length = 0;
  ASSERT_TRUE(GetVarint(bytes, cursor, length));

  // The retired pre-anomaly version byte and a future one, CRC re-stamped so only the
  // version check can object.
  for (const uint8_t version : {uint8_t{1}, uint8_t{9}}) {
    std::vector<uint8_t> versioned = bytes;
    versioned[cursor + 2] = version;
    const size_t frame_start = cursor;
    const size_t crc_pos = frame_start + static_cast<size_t>(length) - 4;
    const uint32_t crc =
        Crc32(std::span<const uint8_t>(versioned.data() + frame_start, crc_pos - frame_start));
    for (int i = 0; i < 4; ++i) {
      versioned[crc_pos + static_cast<size_t>(i)] = static_cast<uint8_t>(crc >> (8 * i));
    }
    size_t pos = 0;
    SealedWindow out;
    EXPECT_EQ(DecodeWindowRecord(versioned, pos, key, out), WindowLogStatus::kBadVersion)
        << "version " << static_cast<int>(version);
  }

  // Wrong key: CRC is fine (it is keyless), the SipHash tag is not.
  ReportKey wrong;
  wrong.k0 ^= 1;
  size_t pos = 0;
  SealedWindow out;
  EXPECT_EQ(DecodeWindowRecord(bytes, pos, wrong, out), WindowLogStatus::kBadAuth);
}

TEST(WindowLog, ReopenAppendRoundTripAndTornTailRecovery) {
  const std::string dir = TempLogDir("reopen");
  {
    WindowLogWriter writer(dir);
    ASSERT_TRUE(writer.ok()) << writer.error();
    writer.Append(SampleWindow(0));
    writer.Append(SampleWindow(1));
  }
  // Tear the newest segment mid-record: append a valid record, then chop bytes off the end.
  {
    std::vector<uint8_t> record;
    EncodeWindowRecord(SampleWindow(2), ReportKey{}, record);
    ASSERT_GT(record.size(), 5u);
    std::vector<fs::path> segments;
    for (const auto& entry : fs::directory_iterator(dir)) {
      segments.push_back(entry.path());
    }
    ASSERT_EQ(segments.size(), 1u);
    std::ofstream out(segments[0], std::ios::binary | std::ios::app);
    out.write(reinterpret_cast<const char*>(record.data()),
              static_cast<std::streamsize>(record.size() - 5));
  }
  // Reopen: the torn tail is truncated away, appending continues cleanly after window 1.
  {
    WindowLogWriter writer(dir);
    ASSERT_TRUE(writer.ok()) << writer.error();
    EXPECT_GT(writer.recovered_tail_bytes(), 0u);
    writer.Append(SampleWindow(2));
  }
  const WindowLogReadResult read = ReadWindowLog(dir);
  ASSERT_TRUE(read.error.empty()) << read.error;
  EXPECT_TRUE(read.clean);
  ASSERT_EQ(read.windows.size(), 3u);
  for (uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(read.windows[i], SampleWindow(i));
  }
}

TEST(WindowLog, RefusesSegmentWrittenUnderAnotherKey) {
  // A record that passes its CRC but not authentication is no torn write: a writer under
  // another key must refuse the directory and leave the segment as it found it.
  const std::string dir = TempLogDir("other_key");
  WindowLogOptions under_a;
  WindowLogOptions under_b;
  under_b.key.k1 ^= 1;
  {
    WindowLogWriter writer(dir, under_a);
    ASSERT_TRUE(writer.ok()) << writer.error();
    for (uint64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(writer.Append(SampleWindow(i)));
    }
  }
  std::vector<fs::path> segments;
  for (const auto& entry : fs::directory_iterator(dir)) {
    segments.push_back(entry.path());
  }
  ASSERT_EQ(segments.size(), 1u);
  const uintmax_t size = fs::file_size(segments[0]);
  {
    WindowLogWriter writer(dir, under_b);
    EXPECT_FALSE(writer.ok());
    EXPECT_NE(writer.error().find(segments[0].filename().string()), std::string::npos)
        << writer.error();
    EXPECT_NE(writer.error().find(WindowLogStatusName(WindowLogStatus::kBadAuth)),
              std::string::npos)
        << writer.error();
    EXPECT_FALSE(writer.Append(SampleWindow(3)));
  }
  EXPECT_EQ(fs::file_size(segments[0]), size);
  WindowLogReadResult read = ReadWindowLog(dir, under_a.key);
  EXPECT_TRUE(read.clean);
  ASSERT_EQ(read.windows.size(), 3u);

  // Under its own key the log reopens cleanly and appends after the last window.
  {
    WindowLogWriter writer(dir, under_a);
    ASSERT_TRUE(writer.ok()) << writer.error();
    EXPECT_EQ(writer.recovered_tail_bytes(), 0u);
    ASSERT_TRUE(writer.Append(SampleWindow(3)));
  }
  read = ReadWindowLog(dir, under_a.key);
  EXPECT_TRUE(read.clean);
  ASSERT_EQ(read.windows.size(), 4u);
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(read.windows[i], SampleWindow(i));
  }
}

TEST(WindowLog, RotationAndBoundedRetention) {
  const std::string dir = TempLogDir("retention");
  WindowLogOptions options;
  options.max_records_per_segment = 2;
  options.max_segments = 2;
  WindowLogWriter writer(dir, options);
  ASSERT_TRUE(writer.ok()) << writer.error();
  for (uint64_t i = 0; i < 9; ++i) {
    ASSERT_TRUE(writer.Append(SampleWindow(i)));
  }
  EXPECT_GT(writer.segments_retired(), 0u);
  size_t segment_files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++segment_files;
  }
  EXPECT_LE(segment_files, 2u);
  // The newest windows survive; ReadWindowLog returns them oldest-first.
  const WindowLogReadResult read = ReadWindowLog(dir);
  ASSERT_TRUE(read.error.empty());
  ASSERT_GE(read.windows.size(), 3u);
  EXPECT_EQ(read.windows.back(), SampleWindow(8));
  for (size_t i = 1; i < read.windows.size(); ++i) {
    EXPECT_EQ(read.windows[i].window_index, read.windows[i - 1].window_index + 1);
  }
}

TEST(WindowLog, RefusesDirectoryWithForeignFiles) {
  const std::string dir = TempLogDir("foreign");
  {
    std::ofstream out(fs::path(dir) / "wlog-0000000000000000.seg", std::ios::binary);
    out << "definitely not a window log";
  }
  WindowLogWriter writer(dir);
  EXPECT_FALSE(writer.ok());
  EXPECT_FALSE(writer.error().empty());
  // The bad file is left untouched.
  EXPECT_GT(fs::file_size(fs::path(dir) / "wlog-0000000000000000.seg"), 0u);
}

// ---- Query plane over synthetic windows --------------------------------------------------

SealedWindow SuspectWindow(uint64_t index, std::vector<LinkId> links) {
  SealedWindow w;
  w.window_index = index;
  w.num_slots = 10;
  SealedBoundary b;
  b.segment = 6;
  b.time_seconds = 30.0;
  for (const LinkId link : links) {
    b.suspects.push_back(SuspectLink{link, 0.1 + 0.01 * static_cast<double>(index),
                                     /*hit_ratio=*/1.0,
                                     /*explained_losses=*/static_cast<int64_t>(index)});
  }
  w.boundaries.push_back(b);
  return w;
}

TEST(QueryPlane, EpisodesSplitOnGapsAndAbsences) {
  std::vector<SealedWindow> windows;
  windows.push_back(SuspectWindow(0, {7}));
  windows.push_back(SuspectWindow(1, {7}));
  windows.push_back(SuspectWindow(2, {}));   // absent: episode break
  windows.push_back(SuspectWindow(3, {7}));
  windows.push_back(SuspectWindow(5, {7}));  // retention gap (window 4 evicted): break
  QueryEngine engine(std::move(windows));

  const auto timeline = engine.LinkTimeline(7);
  ASSERT_EQ(timeline.size(), 5u);
  EXPECT_TRUE(timeline[0].suspected);
  EXPECT_FALSE(timeline[2].suspected);

  const auto episodes = engine.LinkEpisodes(7);
  ASSERT_EQ(episodes.size(), 3u);
  EXPECT_EQ(episodes[0].first_window, 0u);
  EXPECT_EQ(episodes[0].last_window, 1u);
  EXPECT_EQ(episodes[0].windows, 2u);
  EXPECT_EQ(episodes[1].first_window, 3u);
  EXPECT_EQ(episodes[2].first_window, 5u);

  // "Last N windows" restricts the range.
  EXPECT_EQ(engine.LinkEpisodes(7, 2).size(), 2u);
  EXPECT_EQ(engine.LinkTimeline(7, 2).size(), 2u);

  const auto top = engine.TopLinks();
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].link, 7);
  EXPECT_EQ(top[0].windows_suspected, 4u);
}

// ---- The acceptance gate: replay-vs-live bit-identity ------------------------------------

DetectorSystemOptions HistoryTestOptions(double pps) {
  DetectorSystemOptions options;
  options.pmc.alpha = 1;
  options.pmc.beta = 1;
  options.controller.packets_per_second = pps;
  options.segments_per_window = 6;
  options.diagnose_every_segments = 2;
  return options;
}

std::vector<ChurnEvent> MidWindowChurn(const FatTree& ft) {
  std::vector<ChurnEvent> churn;
  churn.push_back(ChurnEvent{8.0, TopologyDelta::LinkDown(ft.AggCoreLink(1, 0, 1))});
  churn.push_back(ChurnEvent{14.0, TopologyDelta::NodeDown(ft.Server(2, 0, 1))});
  churn.push_back(ChurnEvent{23.0, TopologyDelta::LinkUp(ft.AggCoreLink(1, 0, 1))});
  return churn;
}

TEST(HistoryReplay, ReplayedSuspectSetsAreBitIdenticalAtEveryBoundary) {
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  FailureScenario scenario;
  LinkFailure f;
  f.link = ft.EdgeAggLink(0, 1, 0);
  f.type = FailureType::kRandomPartial;
  f.loss_rate = 0.08;
  scenario.failures.push_back(f);
  const std::vector<ChurnEvent> churn = MidWindowChurn(ft);

  const std::string dir = TempLogDir("replay");
  DetectorSystemOptions options = HistoryTestOptions(150);
  options.history_dir = dir;
  DetectorSystem system(routing, options);
  Rng rng(99);
  std::vector<DetectorSystem::StreamingWindowResult> live;
  live.push_back(system.RunWindowStreaming(scenario, churn, rng));
  live.push_back(system.RunWindowStreaming(scenario, {}, rng));
  live.push_back(system.RunWindowStreaming(scenario, {}, rng));
  EXPECT_EQ(system.history_windows_sealed(), 3u);
  ASSERT_NE(system.history_log(), nullptr);
  EXPECT_TRUE(system.history_log()->ok()) << system.history_log()->error();

  QueryEngine engine = QueryEngine::FromDir(dir);
  ASSERT_TRUE(engine.ok()) << engine.read_result().error;
  EXPECT_TRUE(engine.read_result().clean);
  ASSERT_EQ(engine.num_windows(), live.size());

  ReplayOptions replay_options;
  replay_options.pll = options.pll;
  const std::vector<ReplayedWindow> replayed =
      engine.Replay(ft.topology(), system.probe_matrix(), replay_options);
  ASSERT_EQ(replayed.size(), live.size());
  for (size_t w = 0; w < live.size(); ++w) {
    const auto& timeline = live[w].timeline;
    ASSERT_EQ(replayed[w].boundaries.size(), timeline.size()) << "window " << w;
    for (size_t b = 0; b < timeline.size(); ++b) {
      const std::string when =
          "window " + std::to_string(w) + " boundary " + std::to_string(b);
      ExpectIdenticalLocalizations(replayed[w].boundaries[b].localization,
                                   timeline[b].localization, when);
    }
  }

  // The log itself records the same diagnosis timeline the live run returned.
  for (size_t w = 0; w < live.size(); ++w) {
    const SealedWindow& sealed = engine.window(w);
    ASSERT_EQ(sealed.boundaries.size(), live[w].timeline.size());
    EXPECT_EQ(sealed.boundaries.back().suspects, live[w].window.localization.links);
    EXPECT_EQ(sealed.probes_sent, live[w].window.probes_sent);
  }
  EXPECT_EQ(engine.window(0).churn_events, 3u);
}

// Report-plane mode seals the same windows as direct mode — the retention seam sits behind
// the collector fold, so the on-disk history is transport-independent.
TEST(HistoryReplay, ReportPlaneLogMatchesDirectModeLog) {
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  FailureScenario scenario;
  LinkFailure f;
  f.link = ft.EdgeAggLink(0, 1, 0);
  f.type = FailureType::kRandomPartial;
  f.loss_rate = 0.08;
  scenario.failures.push_back(f);

  auto record = [&](bool report_plane) {
    const std::string dir = TempLogDir(report_plane ? "rp" : "direct");
    DetectorSystemOptions options = HistoryTestOptions(150);
    options.report_plane = report_plane;
    options.history_dir = dir;
    DetectorSystem system(routing, options);
    Rng rng(99);
    system.RunWindowStreaming(scenario, {}, rng);
    system.RunWindowStreaming(scenario, {}, rng);
    return ReadWindowLog(dir).windows;
  };
  const std::vector<SealedWindow> direct = record(false);
  const std::vector<SealedWindow> report = record(true);
  ASSERT_EQ(direct.size(), 2u);
  EXPECT_EQ(direct, report);
}

// What-if replay: loosening the hit-ratio threshold can only widen the suspect set.
TEST(HistoryReplay, AlteredThresholdReplayWidensMonotonically) {
  const FatTree ft(4);
  const FatTreeRouting routing(ft);
  FailureScenario scenario;
  LinkFailure f;
  f.link = ft.AggCoreLink(0, 0, 0);
  f.type = FailureType::kDeterministicPartial;
  f.match_fraction = 0.5;
  f.rule_seed = 77;
  scenario.failures.push_back(f);

  const std::string dir = TempLogDir("whatif");
  DetectorSystemOptions options = HistoryTestOptions(150);
  options.history_dir = dir;
  DetectorSystem system(routing, options);
  Rng rng(7);
  system.RunWindowStreaming(scenario, {}, rng);
  QueryEngine engine = QueryEngine::FromDir(dir);
  ASSERT_EQ(engine.num_windows(), 1u);

  ReplayOptions live_opts;
  live_opts.pll = options.pll;
  ReplayOptions loose = live_opts;
  loose.pll.hit_ratio_threshold = 0.1;
  const auto base = engine.Replay(ft.topology(), system.probe_matrix(), live_opts);
  const auto wide = engine.Replay(ft.topology(), system.probe_matrix(), loose);
  ASSERT_EQ(base.size(), 1u);
  ASSERT_EQ(wide.size(), 1u);
  const auto& base_links = base[0].boundaries.back().localization.links;
  const auto& wide_links = wide[0].boundaries.back().localization.links;
  EXPECT_GE(wide_links.size(), base_links.size());
  for (const SuspectLink& s : base_links) {
    bool found = false;
    for (const SuspectLink& t : wide_links) {
      found = found || t.link == s.link;
    }
    EXPECT_TRUE(found) << "link " << s.link << " vanished when the threshold loosened";
  }
}

}  // namespace
}  // namespace detector
