#include "src/history/window_log.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "src/common/crc32.h"
#include "src/common/siphash.h"

namespace detector {

namespace {

namespace fs = std::filesystem;

constexpr uint8_t kRecordMagic0 = 0xD7;  // shared lead byte with the wire frames
constexpr uint8_t kRecordMagic1 = 0x57;  // 'W' — a log record, not a wire frame (0x52)
// v2: deltas, suspects, server-link alarms and anomaly-plane alarms per boundary. Readers
// reject every other version kBadVersion.
constexpr uint8_t kRecordVersion = 2;
constexpr size_t kTagOffset = 3;      // 8-byte SipHash tag at [3, 11)
constexpr size_t kPayloadOffset = 11;
constexpr size_t kMinFrameBytes = kPayloadOffset + 4;  // header + tag + CRC, empty payload

void PutFixed64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

bool GetFixed64(std::span<const uint8_t> bytes, size_t& pos, uint64_t& v) {
  if (pos + 8 > bytes.size()) {
    return false;
  }
  v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(bytes[pos + static_cast<size_t>(i)]) << (8 * i);
  }
  pos += 8;
  return true;
}

uint64_t DoubleBits(double d) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

double DoubleFromBits(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

void EncodePayload(const SealedWindow& w, std::vector<uint8_t>& out) {
  PutVarint(out, w.window_index);
  PutVarint(out, w.num_slots);
  PutVarint(out, w.churn_events);
  PutVarint(out, w.dead_links);
  PutVarint(out, ZigzagEncode(w.probes_sent));
  PutVarint(out, ZigzagEncode(w.bytes_sent));
  PutVarint(out, w.boundaries.size());
  for (const SealedBoundary& b : w.boundaries) {
    PutVarint(out, static_cast<uint64_t>(b.segment));
    PutFixed64(out, DoubleBits(b.time_seconds));
    PutVarint(out, b.deltas.size());
    // Deltas are cut in ascending slot order, so the slot column delta-encodes like the wire
    // frames' slot gaps do.
    PathId prev_slot = 0;
    for (const SealedDelta& d : b.deltas) {
      PutVarint(out, static_cast<uint64_t>(d.slot - prev_slot));
      prev_slot = d.slot;
      PutVarint(out, ZigzagEncode(d.sent));
      PutVarint(out, ZigzagEncode(d.lost));
    }
    PutVarint(out, b.suspects.size());
    for (const SuspectLink& s : b.suspects) {
      PutVarint(out, static_cast<uint64_t>(s.link));
      PutFixed64(out, DoubleBits(s.estimated_loss_rate));
      PutFixed64(out, DoubleBits(s.hit_ratio));
      PutVarint(out, ZigzagEncode(s.explained_losses));
    }
    PutVarint(out, b.alarms.size());
    for (const ServerLinkAlarm& a : b.alarms) {
      PutVarint(out, static_cast<uint64_t>(a.pinger));
      PutVarint(out, static_cast<uint64_t>(a.target));
      PutFixed64(out, DoubleBits(a.loss_ratio));
    }
    // v2: anomaly-plane alarms.
    PutVarint(out, b.anomalies.size());
    for (const LinkAnomaly& an : b.anomalies) {
      PutVarint(out, static_cast<uint64_t>(an.link));
      PutVarint(out, an.signal);
      PutFixed64(out, DoubleBits(an.score));
      PutVarint(out, static_cast<uint64_t>(an.sustained));
    }
  }
}

bool DecodePayload(std::span<const uint8_t> payload, SealedWindow& out) {
  size_t pos = 0;
  uint64_t u;
  SealedWindow w;
  if (!GetVarint(payload, pos, w.window_index) || !GetVarint(payload, pos, w.num_slots) ||
      !GetVarint(payload, pos, w.churn_events) || !GetVarint(payload, pos, w.dead_links)) {
    return false;
  }
  if (!GetVarint(payload, pos, u)) {
    return false;
  }
  w.probes_sent = ZigzagDecode(u);
  if (!GetVarint(payload, pos, u)) {
    return false;
  }
  w.bytes_sent = ZigzagDecode(u);
  uint64_t num_boundaries;
  if (!GetVarint(payload, pos, num_boundaries) || num_boundaries > payload.size()) {
    return false;
  }
  w.boundaries.reserve(static_cast<size_t>(num_boundaries));
  for (uint64_t i = 0; i < num_boundaries; ++i) {
    SealedBoundary b;
    uint64_t segment, time_bits;
    if (!GetVarint(payload, pos, segment) || segment > INT32_MAX ||
        !GetFixed64(payload, pos, time_bits)) {
      return false;
    }
    b.segment = static_cast<int>(segment);
    b.time_seconds = DoubleFromBits(time_bits);
    uint64_t count;
    if (!GetVarint(payload, pos, count) || count > payload.size()) {
      return false;
    }
    b.deltas.reserve(static_cast<size_t>(count));
    PathId prev_slot = 0;
    for (uint64_t j = 0; j < count; ++j) {
      SealedDelta d;
      uint64_t gap, sent, lost;
      if (!GetVarint(payload, pos, gap) || !GetVarint(payload, pos, sent) ||
          !GetVarint(payload, pos, lost)) {
        return false;
      }
      const uint64_t slot = static_cast<uint64_t>(prev_slot) + gap;
      if (slot > INT32_MAX) {
        return false;
      }
      d.slot = static_cast<PathId>(slot);
      prev_slot = d.slot;
      d.sent = ZigzagDecode(sent);
      d.lost = ZigzagDecode(lost);
      b.deltas.push_back(d);
    }
    if (!GetVarint(payload, pos, count) || count > payload.size()) {
      return false;
    }
    b.suspects.reserve(static_cast<size_t>(count));
    for (uint64_t j = 0; j < count; ++j) {
      SuspectLink s;
      uint64_t link, est, hit, explained;
      if (!GetVarint(payload, pos, link) || link > INT32_MAX ||
          !GetFixed64(payload, pos, est) || !GetFixed64(payload, pos, hit) ||
          !GetVarint(payload, pos, explained)) {
        return false;
      }
      s.link = static_cast<LinkId>(link);
      s.estimated_loss_rate = DoubleFromBits(est);
      s.hit_ratio = DoubleFromBits(hit);
      s.explained_losses = ZigzagDecode(explained);
      b.suspects.push_back(s);
    }
    if (!GetVarint(payload, pos, count) || count > payload.size()) {
      return false;
    }
    b.alarms.reserve(static_cast<size_t>(count));
    for (uint64_t j = 0; j < count; ++j) {
      ServerLinkAlarm a;
      uint64_t pinger, target, ratio;
      if (!GetVarint(payload, pos, pinger) || pinger > INT32_MAX ||
          !GetVarint(payload, pos, target) || target > INT32_MAX ||
          !GetFixed64(payload, pos, ratio)) {
        return false;
      }
      a.pinger = static_cast<NodeId>(pinger);
      a.target = static_cast<NodeId>(target);
      a.loss_ratio = DoubleFromBits(ratio);
      b.alarms.push_back(a);
    }
    if (!GetVarint(payload, pos, count) || count > payload.size()) {
      return false;
    }
    b.anomalies.reserve(static_cast<size_t>(count));
    for (uint64_t j = 0; j < count; ++j) {
      LinkAnomaly an;
      uint64_t link, signal, score_bits, sustained;
      if (!GetVarint(payload, pos, link) || link > INT32_MAX ||
          !GetVarint(payload, pos, signal) || signal > UINT8_MAX ||
          !GetFixed64(payload, pos, score_bits) ||
          !GetVarint(payload, pos, sustained) || sustained > INT32_MAX) {
        return false;
      }
      an.link = static_cast<LinkId>(link);
      an.signal = static_cast<uint8_t>(signal);
      an.score = DoubleFromBits(score_bits);
      an.sustained = static_cast<int32_t>(sustained);
      b.anomalies.push_back(an);
    }
    w.boundaries.push_back(std::move(b));
  }
  if (pos != payload.size()) {
    return false;  // trailing payload bytes: not this version's layout
  }
  out = std::move(w);
  return true;
}

bool SegmentHeaderValid(std::span<const uint8_t> bytes) {
  return bytes.size() >= sizeof(kSegmentHeader) &&
         std::memcmp(bytes.data(), kSegmentHeader, sizeof(kSegmentHeader)) == 0;
}

std::vector<uint8_t> ReadFileBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

// Sorted oldest-first: names embed the first window index as fixed-width hex, so
// lexicographic order is chronological order.
std::vector<std::string> ListSegments(const std::string& dir) {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wlog-", 0) == 0 && name.size() > 9 &&
        name.compare(name.size() - 4, 4, ".seg") == 0) {
      out.push_back(entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

const char* WindowLogStatusName(WindowLogStatus status) {
  switch (status) {
    case WindowLogStatus::kOk: return "ok";
    case WindowLogStatus::kTruncated: return "truncated";
    case WindowLogStatus::kBadMagic: return "bad-magic";
    case WindowLogStatus::kBadVersion: return "bad-version";
    case WindowLogStatus::kBadAuth: return "bad-auth";
    case WindowLogStatus::kBadCrc: return "bad-crc";
    case WindowLogStatus::kMalformed: return "malformed";
  }
  return "unknown";
}

void EncodeWindowRecord(const SealedWindow& window, const ReportKey& key,
                        std::vector<uint8_t>& out) {
  // The frame is built in place at the end of `out`, whose buffer the writer reuses.
  const size_t start = out.size();
  out.push_back(kRecordMagic0);
  out.push_back(kRecordMagic1);
  out.push_back(kRecordVersion);
  out.insert(out.end(), 8, 0);  // tag placeholder
  EncodePayload(window, out);
  const uint64_t tag =
      SipHash24(key.k0, key.k1,
                std::span<const uint8_t>(out.data() + start + kPayloadOffset,
                                         out.size() - start - kPayloadOffset));
  for (int i = 0; i < 8; ++i) {
    out[start + kTagOffset + static_cast<size_t>(i)] = static_cast<uint8_t>(tag >> (8 * i));
  }
  const uint32_t crc = Crc32(std::span<const uint8_t>(out.data() + start, out.size() - start));
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>(crc >> (8 * i)));
  }
  // The length prefix, known only now, goes in front of the frame: PutVarint's bytes, moved in
  // by one memmove.
  uint8_t prefix[10];
  size_t prefix_size = 0;
  uint64_t length = out.size() - start;
  while (length >= 0x80) {
    prefix[prefix_size++] = static_cast<uint8_t>(length) | 0x80;
    length >>= 7;
  }
  prefix[prefix_size++] = static_cast<uint8_t>(length);
  out.insert(out.begin() + static_cast<std::ptrdiff_t>(start), prefix, prefix + prefix_size);
}

WindowLogStatus DecodeWindowRecord(std::span<const uint8_t> bytes, size_t& pos,
                                   const ReportKey& key, SealedWindow& out) {
  const size_t start = pos;
  size_t cursor = pos;
  uint64_t length;
  if (!GetVarint(bytes, cursor, length)) {
    pos = start;
    return WindowLogStatus::kTruncated;
  }
  if (length < kMinFrameBytes || cursor + length > bytes.size()) {
    pos = start;
    // A garbage length indistinguishable from a torn write: both recover at `start`.
    return WindowLogStatus::kTruncated;
  }
  const std::span<const uint8_t> frame = bytes.subspan(cursor, static_cast<size_t>(length));
  if (frame[0] != kRecordMagic0 || frame[1] != kRecordMagic1) {
    pos = start;
    return WindowLogStatus::kBadMagic;
  }
  if (frame[2] != kRecordVersion) {
    pos = start;
    return WindowLogStatus::kBadVersion;
  }
  const size_t crc_pos = frame.size() - 4;
  uint32_t stored_crc = 0;
  for (int i = 0; i < 4; ++i) {
    stored_crc |= static_cast<uint32_t>(frame[crc_pos + static_cast<size_t>(i)]) << (8 * i);
  }
  if (Crc32(frame.subspan(0, crc_pos)) != stored_crc) {
    pos = start;
    return WindowLogStatus::kBadCrc;
  }
  const std::span<const uint8_t> payload =
      frame.subspan(kPayloadOffset, crc_pos - kPayloadOffset);
  uint64_t stored_tag = 0;
  for (int i = 0; i < 8; ++i) {
    stored_tag |= static_cast<uint64_t>(frame[kTagOffset + static_cast<size_t>(i)]) << (8 * i);
  }
  // Constant-time-ish compare, same discipline as the wire codec: the full xor folds before
  // the branch.
  if ((SipHash24(key.k0, key.k1, payload) ^ stored_tag) != 0) {
    pos = start;
    return WindowLogStatus::kBadAuth;
  }
  if (!DecodePayload(payload, out)) {
    pos = start;
    return WindowLogStatus::kMalformed;
  }
  pos = cursor + static_cast<size_t>(length);
  return WindowLogStatus::kOk;
}

size_t DecodeSegment(std::span<const uint8_t> bytes, const ReportKey& key,
                     std::vector<SealedWindow>& out, WindowLogStatus& tail_status) {
  if (!SegmentHeaderValid(bytes)) {
    tail_status = WindowLogStatus::kBadMagic;
    return 0;
  }
  size_t pos = sizeof(kSegmentHeader);
  tail_status = WindowLogStatus::kOk;
  while (pos < bytes.size()) {
    SealedWindow w;
    const WindowLogStatus status = DecodeWindowRecord(bytes, pos, key, w);
    if (status != WindowLogStatus::kOk) {
      tail_status = status;
      break;  // pos is the last valid CRC boundary — nothing past it is trusted
    }
    out.push_back(std::move(w));
  }
  return pos;
}

WindowLogWriter::WindowLogWriter(std::string dir, WindowLogOptions options)
    : dir_(std::move(dir)), options_(options) {
  options_.max_records_per_segment = std::max<size_t>(1, options_.max_records_per_segment);
  ok_ = OpenDirectory();
}

WindowLogWriter::~WindowLogWriter() { CloseSegment(); }

bool WindowLogWriter::OpenDirectory() {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    error_ = "cannot create " + dir_ + ": " + ec.message();
    return false;
  }
  segment_paths_ = ListSegments(dir_);
  if (segment_paths_.empty()) {
    return true;  // fresh log; the first Append opens a segment
  }
  // Reopen-and-append recovery: scan the newest segment, keep everything up to the last valid
  // CRC boundary, truncate the rest (a torn write from a crash), and append from there.
  const std::string& newest = segment_paths_.back();
  const std::vector<uint8_t> bytes = ReadFileBytes(newest);
  if (!SegmentHeaderValid(bytes)) {
    error_ = newest + ": not a window-log segment (bad header)";
    return false;  // refuse to touch a file that is not ours
  }
  std::vector<SealedWindow> recovered;
  WindowLogStatus tail_status;
  const size_t boundary = DecodeSegment(bytes, options_.key, recovered, tail_status);
  if (tail_status == WindowLogStatus::kBadAuth || tail_status == WindowLogStatus::kMalformed) {
    // The record passed its CRC, so no crash tore it: it was written under another key or
    // layout, and truncating it would delete another writer's windows.
    error_ = newest + ": " + WindowLogStatusName(tail_status) + " record at byte " +
             std::to_string(boundary) + " (another key or layout); refusing to truncate it";
    return false;
  }
  records_in_segment_ = recovered.size();
  if (boundary < bytes.size()) {
    recovered_tail_bytes_ = bytes.size() - boundary;
    fs::resize_file(newest, boundary, ec);
    if (ec) {
      error_ = "cannot truncate " + newest + ": " + ec.message();
      return false;
    }
  }
  file_ = std::fopen(newest.c_str(), "ab");
  if (file_ == nullptr) {
    error_ = "cannot reopen " + newest;
    return false;
  }
  return true;
}

bool WindowLogWriter::OpenSegment(uint64_t first_window_index) {
  CloseSegment();
  char name[32];
  std::snprintf(name, sizeof(name), "wlog-%016llx.seg",
                static_cast<unsigned long long>(first_window_index));
  const std::string path = (fs::path(dir_) / name).string();
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    error_ = "cannot create segment " + path;
    return false;
  }
  std::fwrite(kSegmentHeader, 1, sizeof(kSegmentHeader), file_);
  records_in_segment_ = 0;
  segment_paths_.push_back(path);
  EnforceRetention();
  return true;
}

void WindowLogWriter::CloseSegment() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

void WindowLogWriter::EnforceRetention() {
  if (options_.max_segments == 0) {
    return;
  }
  while (segment_paths_.size() > options_.max_segments) {
    std::error_code ec;
    fs::remove(segment_paths_.front(), ec);
    segment_paths_.erase(segment_paths_.begin());
    ++segments_retired_;
  }
}

bool WindowLogWriter::Append(const SealedWindow& window) {
  if (!ok_) {
    return false;
  }
  if (file_ == nullptr || records_in_segment_ >= options_.max_records_per_segment) {
    if (!OpenSegment(window.window_index)) {
      ok_ = false;
      return false;
    }
  }
  scratch_.clear();
  EncodeWindowRecord(window, options_.key, scratch_);
  if (std::fwrite(scratch_.data(), 1, scratch_.size(), file_) != scratch_.size()) {
    error_ = "short write to " + segment_paths_.back();
    ok_ = false;
    return false;
  }
  // Flush per record: a sealed window is durable at the next boundary, and a crash tears at
  // most the record being written — which the CRC framing recovers from.
  std::fflush(file_);
  ++records_in_segment_;
  ++records_appended_;
  bytes_appended_ += scratch_.size();
  return true;
}

WindowLogReadResult ReadWindowLog(const std::string& dir, const ReportKey& key) {
  WindowLogReadResult result;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    result.error = dir + " is not a readable directory";
    result.clean = false;
    return result;
  }
  for (const std::string& path : ListSegments(dir)) {
    const std::vector<uint8_t> bytes = ReadFileBytes(path);
    WindowLogStatus tail_status;
    const size_t boundary = DecodeSegment(bytes, key, result.windows, tail_status);
    ++result.segments_read;
    if (tail_status != WindowLogStatus::kOk) {
      ++result.records_rejected;
      result.bytes_discarded += bytes.size() - boundary;
      if (result.first_reject == WindowLogStatus::kOk) {
        result.first_reject = tail_status;
      }
      result.clean = false;
    }
  }
  return result;
}

}  // namespace detector
