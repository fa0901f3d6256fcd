#include "src/report/codec.h"

#include <limits>
#include <utility>

#include "src/common/crc32.h"
#include "src/common/siphash.h"

namespace detector {

void PutVarint(std::vector<uint8_t>& out, uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<uint8_t>(value));
}

bool GetVarint(std::span<const uint8_t> bytes, size_t& pos, uint64_t& value) {
  uint64_t result = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos >= bytes.size()) {
      return false;
    }
    const uint8_t byte = bytes[pos++];
    // The 10th byte may only carry the top bit of a 64-bit value.
    if (shift == 63 && (byte & ~uint8_t{1}) != 0) {
      return false;
    }
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      value = result;
      return true;
    }
  }
  return false;
}

const char* DecodeStatusName(DecodeStatus status) {
  switch (status) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kTooShort: return "too-short";
    case DecodeStatus::kBadMagic: return "bad-magic";
    case DecodeStatus::kBadVersion: return "bad-version";
    case DecodeStatus::kBadCrc: return "bad-crc";
    case DecodeStatus::kBadAuth: return "bad-auth";
    case DecodeStatus::kTruncated: return "truncated";
    case DecodeStatus::kMalformed: return "malformed";
  }
  return "unknown";
}

void ReportFrame::AddRtt(PathId slot, uint32_t epoch, NodeId target, const RttSketch& sketch) {
  const std::span<const RttSketch::BinCount> bins = sketch.bins();
  rtt.push_back(WireRttDelta{slot, epoch, target, sketch.num_bins(),
                             static_cast<uint32_t>(rtt_bins.size()),
                             static_cast<uint32_t>(bins.size())});
  rtt_bins.insert(rtt_bins.end(), bins.begin(), bins.end());
}

void ReportFrame::Clear() {
  pinger = kInvalidNode;
  window_id = 0;
  seq = 0;
  paths.clear();
  intra.clear();
  rtt.clear();
  rtt_bins.clear();
  unknown_records = 0;
}

namespace {

// Bytes PutVarint writes for `value`.
size_t VarintSize(uint64_t value) {
  size_t size = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++size;
  }
  return size;
}

}  // namespace

void ReportCodec::Encode(const ReportFrame& frame, std::vector<uint8_t>& out,
                         const ReportKey& key) {
  out.clear();
  out.push_back(kMagic0);
  out.push_back(kMagic1);
  out.push_back(kVersion);
  out.resize(kHeaderPos, 0);  // reserve the tag slot; filled once the payload is complete
  PutVarint(out, static_cast<uint64_t>(frame.pinger));
  PutVarint(out, frame.window_id);
  PutVarint(out, frame.seq);
  PutVarint(out, frame.paths.size());
  PutVarint(out, frame.intra.size());
  PathId prev_slot = 0;
  for (const WirePathDelta& record : frame.paths) {
    PutVarint(out, ZigzagEncode(static_cast<int64_t>(record.slot) - prev_slot));
    prev_slot = record.slot;
    PutVarint(out, record.epoch);
    PutVarint(out, static_cast<uint64_t>(record.target));
    PutVarint(out, static_cast<uint64_t>(record.sent));
    PutVarint(out, static_cast<uint64_t>(record.lost));
  }
  for (const WireIntraDelta& record : frame.intra) {
    PutVarint(out, static_cast<uint64_t>(record.target));
    PutVarint(out, static_cast<uint64_t>(record.sent));
    PutVarint(out, static_cast<uint64_t>(record.lost));
  }
  // Extension section — omitted entirely when empty so loss-only frames stay byte-identical
  // to the pre-extension layout (and to what older emitters produce).
  if (!frame.rtt.empty()) {
    PutVarint(out, frame.rtt.size());
    for (const WireRttDelta& record : frame.rtt) {
      // Payload: slot, epoch, target, bin count, non-zero bin count, then (gap, count) per
      // non-zero bin. Its length prefixes it, so size it first and write it in place.
      const std::span<const RttSketch::BinCount> bins = frame.RttBins(record);
      size_t length = VarintSize(static_cast<uint64_t>(record.slot)) +
                      VarintSize(record.epoch) +
                      VarintSize(static_cast<uint64_t>(record.target)) +
                      VarintSize(static_cast<uint64_t>(record.num_bins)) +
                      VarintSize(bins.size());
      int prev_bin = 0;
      for (const RttSketch::BinCount& b : bins) {
        length += VarintSize(static_cast<uint64_t>(b.bin - prev_bin)) +
                  VarintSize(static_cast<uint64_t>(b.count));
        prev_bin = b.bin;
      }
      PutVarint(out, kExtTypeRttSketch);
      PutVarint(out, length);
      PutVarint(out, static_cast<uint64_t>(record.slot));
      PutVarint(out, record.epoch);
      PutVarint(out, static_cast<uint64_t>(record.target));
      PutVarint(out, static_cast<uint64_t>(record.num_bins));
      PutVarint(out, bins.size());
      prev_bin = 0;
      for (const RttSketch::BinCount& b : bins) {
        PutVarint(out, static_cast<uint64_t>(b.bin - prev_bin));
        PutVarint(out, static_cast<uint64_t>(b.count));
        prev_bin = b.bin;
      }
    }
  }
  const uint64_t tag =
      SipHash24(key.k0, key.k1, std::span<const uint8_t>(out).subspan(kHeaderPos));
  for (size_t b = 0; b < 8; ++b) {
    out[kTagOffset + b] = static_cast<uint8_t>(tag >> (8 * b));
  }
  const uint32_t crc = Crc32(out);
  out.push_back(static_cast<uint8_t>(crc));
  out.push_back(static_cast<uint8_t>(crc >> 8));
  out.push_back(static_cast<uint8_t>(crc >> 16));
  out.push_back(static_cast<uint8_t>(crc >> 24));
}

namespace {

// Narrowing readers over the validated byte range. All ids and counters are non-negative and
// bounded on the wire; anything outside its domain fails the whole frame.
bool ReadCount(std::span<const uint8_t> bytes, size_t& pos, size_t limit, uint64_t& value) {
  return GetVarint(bytes, pos, value) && value <= limit;
}

bool ReadI64(std::span<const uint8_t> bytes, size_t& pos, int64_t& value) {
  uint64_t raw = 0;
  if (!GetVarint(bytes, pos, raw) ||
      raw > static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
    return false;
  }
  value = static_cast<int64_t>(raw);
  return true;
}

bool ReadI32(std::span<const uint8_t> bytes, size_t& pos, int32_t& value) {
  uint64_t raw = 0;
  if (!GetVarint(bytes, pos, raw) ||
      raw > static_cast<uint64_t>(std::numeric_limits<int32_t>::max())) {
    return false;
  }
  value = static_cast<int32_t>(raw);
  return true;
}

}  // namespace

DecodeStatus ReportCodec::Decode(std::span<const uint8_t> bytes, ReportFrame& out,
                                 const ReportKey& key, uint64_t max_known_ext_type) {
  ReportFrame scratch;
  return Decode(bytes, out, scratch, key, max_known_ext_type);
}

DecodeStatus ReportCodec::Decode(std::span<const uint8_t> bytes, ReportFrame& out,
                                 ReportFrame& scratch, const ReportKey& key,
                                 uint64_t max_known_ext_type) {
  // magic(2) + version(1) + tag(8) + 5 one-byte header varints + crc(4)
  if (bytes.size() < 20) {
    return DecodeStatus::kTooShort;
  }
  if (bytes[0] != kMagic0 || bytes[1] != kMagic1) {
    return DecodeStatus::kBadMagic;
  }
  if (bytes[2] != kVersion) {
    return DecodeStatus::kBadVersion;
  }
  const size_t body_size = bytes.size() - 4;
  const uint32_t wire_crc = static_cast<uint32_t>(bytes[body_size]) |
                            static_cast<uint32_t>(bytes[body_size + 1]) << 8 |
                            static_cast<uint32_t>(bytes[body_size + 2]) << 16 |
                            static_cast<uint32_t>(bytes[body_size + 3]) << 24;
  if (Crc32(bytes.subspan(0, body_size)) != wire_crc) {
    return DecodeStatus::kBadCrc;
  }
  // CRC clean but tag mismatched: the payload (or the tag itself) was modified by someone
  // who could recompute the CRC but not the keyed tag. Verified before any payload parsing,
  // with a constant-time compare.
  const uint64_t expect =
      SipHash24(key.k0, key.k1, bytes.subspan(kHeaderPos, body_size - kHeaderPos));
  uint8_t expect_bytes[8];
  for (size_t b = 0; b < 8; ++b) {
    expect_bytes[b] = static_cast<uint8_t>(expect >> (8 * b));
  }
  if (!ConstantTimeEqual8(bytes.data() + kTagOffset, expect_bytes)) {
    return DecodeStatus::kBadAuth;
  }

  const std::span<const uint8_t> body = bytes.subspan(0, body_size);
  size_t pos = kHeaderPos;
  DCHECK(&scratch != &out) << "decoding in place would break the all-or-nothing contract";
  ReportFrame& frame = scratch;
  frame.Clear();
  if (!ReadI32(body, pos, frame.pinger)) {
    return DecodeStatus::kMalformed;
  }
  if (!GetVarint(body, pos, frame.window_id) || !GetVarint(body, pos, frame.seq)) {
    return DecodeStatus::kTruncated;
  }
  // A record costs >= 4 bytes on the wire (5 for paths); counts claiming more records than
  // the remaining bytes could hold are rejected before any allocation.
  uint64_t n_paths = 0;
  uint64_t n_intra = 0;
  if (!ReadCount(body, pos, body_size, n_paths) || !ReadCount(body, pos, body_size, n_intra)) {
    return DecodeStatus::kMalformed;
  }
  if (n_paths * 5 + n_intra * 3 > body_size - pos) {
    return DecodeStatus::kTruncated;
  }
  frame.paths.reserve(n_paths);
  frame.intra.reserve(n_intra);
  int64_t prev_slot = 0;
  for (uint64_t i = 0; i < n_paths; ++i) {
    WirePathDelta record;
    uint64_t slot_delta = 0;
    uint64_t epoch = 0;
    if (!GetVarint(body, pos, slot_delta) || !GetVarint(body, pos, epoch)) {
      return DecodeStatus::kTruncated;
    }
    const int64_t slot = prev_slot + ZigzagDecode(slot_delta);
    if (slot < 0 || slot > std::numeric_limits<int32_t>::max() ||
        epoch > std::numeric_limits<uint32_t>::max()) {
      return DecodeStatus::kMalformed;
    }
    prev_slot = slot;
    record.slot = static_cast<PathId>(slot);
    record.epoch = static_cast<uint32_t>(epoch);
    if (!ReadI32(body, pos, record.target)) {
      return DecodeStatus::kMalformed;
    }
    if (!ReadI64(body, pos, record.sent) || !ReadI64(body, pos, record.lost)) {
      return DecodeStatus::kMalformed;
    }
    frame.paths.push_back(record);
  }
  for (uint64_t i = 0; i < n_intra; ++i) {
    WireIntraDelta record;
    if (!ReadI32(body, pos, record.target)) {
      return DecodeStatus::kMalformed;
    }
    if (!ReadI64(body, pos, record.sent) || !ReadI64(body, pos, record.lost)) {
      return DecodeStatus::kMalformed;
    }
    frame.intra.push_back(record);
  }
  // Optional extension section. A frame that ends exactly after the intra records carries no
  // extension records (every pre-extension frame decodes unchanged).
  if (pos < body_size) {
    uint64_t n_ext = 0;
    if (!ReadCount(body, pos, body_size, n_ext)) {
      return DecodeStatus::kMalformed;
    }
    // Every ext record costs >= 2 bytes (type + length).
    if (n_ext * 2 > body_size - pos) {
      return DecodeStatus::kTruncated;
    }
    for (uint64_t i = 0; i < n_ext; ++i) {
      uint64_t type = 0;
      uint64_t length = 0;
      if (!GetVarint(body, pos, type) || !GetVarint(body, pos, length)) {
        return DecodeStatus::kTruncated;
      }
      if (type == 0 || length > body_size - pos) {
        return DecodeStatus::kMalformed;
      }
      const std::span<const uint8_t> payload = body.subspan(pos, length);
      pos += length;
      if (type > max_known_ext_type) {
        // A record type from a newer emitter: skip its declared length and keep folding the
        // records this decoder does understand.
        ++frame.unknown_records;
        continue;
      }
      // type == kExtTypeRttSketch — the only known extension type. Its bins append to the
      // frame's arena.
      WireRttDelta record;
      record.bins_begin = static_cast<uint32_t>(frame.rtt_bins.size());
      size_t rpos = 0;
      uint64_t slot = 0;
      uint64_t epoch = 0;
      uint64_t num_bins = 0;
      uint64_t n_nonzero = 0;
      if (!GetVarint(payload, rpos, slot) || !GetVarint(payload, rpos, epoch) ||
          !ReadI32(payload, rpos, record.target) || !GetVarint(payload, rpos, num_bins) ||
          !GetVarint(payload, rpos, n_nonzero)) {
        return DecodeStatus::kTruncated;
      }
      if (slot > static_cast<uint64_t>(std::numeric_limits<int32_t>::max()) ||
          epoch > std::numeric_limits<uint32_t>::max() || num_bins < RttSketch::kSubBins ||
          num_bins > RttSketch::kMaxBins || n_nonzero > num_bins) {
        return DecodeStatus::kMalformed;
      }
      record.slot = static_cast<PathId>(slot);
      record.epoch = static_cast<uint32_t>(epoch);
      record.num_bins = static_cast<int32_t>(num_bins);
      int64_t bin = -1;
      for (uint64_t j = 0; j < n_nonzero; ++j) {
        uint64_t gap = 0;
        int64_t count = 0;
        if (!GetVarint(payload, rpos, gap) || !ReadI64(payload, rpos, count)) {
          return DecodeStatus::kTruncated;
        }
        const bool repeat = bin >= 0 && gap == 0;
        bin = (bin < 0 ? 0 : bin) + static_cast<int64_t>(gap);
        if (bin >= static_cast<int64_t>(num_bins) || count <= 0) {
          return DecodeStatus::kMalformed;
        }
        if (repeat) {
          // A zero gap repeats the previous bin: its counts add up, as recording them would.
          int64_t& sum = frame.rtt_bins.back().count;
          if (count > std::numeric_limits<int64_t>::max() - sum) {
            return DecodeStatus::kMalformed;
          }
          sum += count;
          continue;
        }
        frame.rtt_bins.push_back(RttSketch::BinCount{static_cast<int32_t>(bin), count});
      }
      if (rpos != payload.size()) {
        return DecodeStatus::kMalformed;  // a known type must parse exactly to its length
      }
      record.bins_size = static_cast<uint32_t>(frame.rtt_bins.size() - record.bins_begin);
      frame.rtt.push_back(record);
    }
  }
  if (pos != body_size) {
    return DecodeStatus::kMalformed;  // trailing garbage that somehow CRC'd clean
  }
  std::swap(out, frame);
  return DecodeStatus::kOk;
}

size_t ReportCodec::FixedWidthBytes(const ReportFrame& frame) {
  // pinger(4) + window(8) + seq(8) + two counts(4+4) fixed header, magic/version/tag/crc as
  // ours (both encodings carry the 8-byte auth tag).
  return 3 + 8 + 4 + 8 + 8 + 4 + 4 + frame.paths.size() * (4 + 4 + 4 + 8 + 8) +
         frame.intra.size() * (4 + 8 + 8) + 4;
}

}  // namespace detector
