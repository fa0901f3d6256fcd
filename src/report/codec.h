// ReportCodec: the report plane's versioned binary wire format. One frame carries one batch
// of a single pinger's per-window observation deltas — matrix-path records stamped with the
// slot epoch observed at probe time, plus intra-rack (server-link) records — framed so the
// collector can reject anything damaged in flight before a byte of it reaches the store.
//
// Frame layout (all multi-byte integers varint-packed, LEB128; signed values zigzag):
//
//   [0]  magic      0xD7 0x52                  ("deTector Report")
//   [2]  version    0x02
//   [3]  auth       8-byte little-endian SipHash-2-4 tag over the payload ([11, -4)) under
//                   the 128-bit deployment key
//   [11] header     varint pinger | varint window_id | varint seq
//                   varint n_paths | varint n_intra
//        paths      n_paths x { zigzag slot_delta   (vs the previous record's slot)
//                               varint epoch | varint target | varint sent | varint lost }
//        intra      n_intra x { varint target | varint sent | varint lost }
//        ext        OPTIONAL; absent entirely when a frame carries no extension records, so
//                   loss-only frames stay byte-identical to the pre-extension layout.
//                   varint n_ext | n_ext x { varint type | varint length | length bytes }
//                   Known types: 1 = RTT sketch record, payload
//                     varint slot | varint epoch | varint target | varint num_bins
//                     varint n_nonzero | n_nonzero x { varint bin_gap | varint count }
//                   (bin_gap is the gap to the previous non-zero bin; first gap is absolute).
//                   Unknown types are skipped over their declared length and counted in
//                   ReportFrame::unknown_records — an older collector keeps folding the loss
//                   records of a newer emitter's frames during a mixed-version rollout.
//   [-4] crc32      little-endian CRC-32 (IEEE) over every byte before it (tag included)
//
// Varint packing prices small values at one byte — a typical observation costs ~7-9 bytes
// against 28 for the naive fixed-width struct (gated in bench_report_plane). Decode is
// all-or-nothing: any structural problem, CRC mismatch, or authentication failure yields a
// DecodeStatus error and an untouched output frame, never a partial one.
//
// CRC and MAC answer different questions and both run: the CRC (checked first) catches
// random in-flight damage cheaply, so kBadCrc means "the network mangled this"; the keyed
// tag (checked second, constant-time) catches deliberate modification — a forger can
// recompute the CRC but not the tag — so kBadAuth means "someone who doesn't hold the key
// touched this". Collectors count the two separately (decode_errors vs tampered_dropped).
#ifndef SRC_REPORT_CODEC_H_
#define SRC_REPORT_CODEC_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/anomaly/rtt_sketch.h"
#include "src/routing/path_store.h"
#include "src/topo/topology.h"

namespace detector {

// One matrix-path observation delta on the wire. The epoch is the slot's epoch at probe time:
// the store folds a record only while its epoch is current, so a frame delivered after a
// mid-window invalidation orphans exactly like a direct store write made before it.
struct WirePathDelta {
  PathId slot = -1;
  uint32_t epoch = 0;
  NodeId target = kInvalidNode;
  int64_t sent = 0;
  int64_t lost = 0;

  bool operator==(const WirePathDelta&) const = default;
};

struct WireIntraDelta {
  NodeId target = kInvalidNode;
  int64_t sent = 0;
  int64_t lost = 0;

  bool operator==(const WireIntraDelta&) const = default;
};

// One per-path RTT sketch delta, carried in the frame's extension section: a `num_bins`-bin
// sketch whose non-zero bins are the frame's rtt_bins[bins_begin, bins_begin + bins_size),
// ascending. Epoch semantics match WirePathDelta: a sketch for a stale slot orphans instead
// of folding.
struct WireRttDelta {
  PathId slot = -1;
  uint32_t epoch = 0;
  NodeId target = kInvalidNode;
  int32_t num_bins = 0;
  uint32_t bins_begin = 0;
  uint32_t bins_size = 0;

  bool operator==(const WireRttDelta&) const = default;
};

struct ReportFrame {
  NodeId pinger = kInvalidNode;
  uint64_t window_id = 0;
  uint64_t seq = 0;  // per (pinger, window) sequence number — the collector's idempotence key
  std::vector<WirePathDelta> paths;
  std::vector<WireIntraDelta> intra;
  std::vector<WireRttDelta> rtt;  // extension records; empty frames omit the ext section
  // Every RTT record's non-zero bins, back to back in record order: one arena per frame, so
  // a frame reused across batches holds its sketches without a heap block per record.
  std::vector<RttSketch::BinCount> rtt_bins;
  // Decode-side only: extension records whose type the decoder does not know, skipped over
  // their declared length. Encode ignores it.
  uint64_t unknown_records = 0;

  size_t num_observations() const { return paths.size() + intra.size() + rtt.size(); }

  // Appends an RTT record carrying `sketch`'s bins.
  void AddRtt(PathId slot, uint32_t epoch, NodeId target, const RttSketch& sketch);
  std::span<const RttSketch::BinCount> RttBins(const WireRttDelta& record) const {
    return std::span<const RttSketch::BinCount>(rtt_bins).subspan(record.bins_begin,
                                                                  record.bins_size);
  }
  // Empties every record and the header, keeping the buffers for the next batch.
  void Clear();

  bool operator==(const ReportFrame&) const = default;
};

enum class DecodeStatus {
  kOk = 0,
  kTooShort,    // shorter than the minimal frame (magic + version + tag + empty header + crc)
  kBadMagic,
  kBadVersion,
  kBadCrc,      // checksum mismatch — corruption or truncation in flight
  kBadAuth,     // CRC passed but the keyed tag does not verify — deliberate tamper or key skew
  kTruncated,   // CRC passed but a varint or record ran off the end (malformed encoder)
  kMalformed,   // CRC passed but a value is out of domain (negative id, varint overflow, ...)
};
const char* DecodeStatusName(DecodeStatus status);

// The 128-bit per-deployment frame-authentication key. Every emitter and collector in one
// deployment shares it; frames tagged under a different key (or modified in flight) decode
// kBadAuth. The default is a fixed, documented key so single-process and test topologies
// agree without plumbing — real deployments override it (DetectorSystemOptions::report_key,
// fleet_runner --key).
struct ReportKey {
  uint64_t k0 = 0x6465546563746f72ULL;  // "deTector"
  uint64_t k1 = 0x5265706f72744b31ULL;  // "ReportK1"

  bool operator==(const ReportKey&) const = default;
};

class ReportCodec {
 public:
  static constexpr uint8_t kMagic0 = 0xD7;
  static constexpr uint8_t kMagic1 = 0x52;
  static constexpr uint8_t kVersion = 2;
  static constexpr size_t kTagOffset = 3;   // 8-byte SipHash tag lives at [3, 11)
  static constexpr size_t kHeaderPos = 11;  // payload varints start here
  // Extension record types. 0 is reserved (never emitted) so a truncated type varint cannot
  // alias a real record.
  static constexpr uint64_t kExtTypeRttSketch = 1;
  static constexpr uint64_t kMaxKnownExtType = kExtTypeRttSketch;

  // Serializes `frame`, replacing `out`'s contents, tagging the payload under `key`.
  static void Encode(const ReportFrame& frame, std::vector<uint8_t>& out,
                     const ReportKey& key = {});

  // Parses `bytes` into `out`, verifying the tag under `key` (constant-time compare) before
  // any payload byte is parsed. On any error `out` is left untouched — a frame either decodes
  // whole or contributes nothing. Extension records with type > max_known_ext_type are skipped
  // over their declared length and tallied in out.unknown_records; passing a smaller
  // max_known_ext_type emulates an older decoder against a newer emitter (regression-tested).
  static DecodeStatus Decode(std::span<const uint8_t> bytes, ReportFrame& out,
                             const ReportKey& key = {},
                             uint64_t max_known_ext_type = kMaxKnownExtType);
  // The same decode, parsed into `scratch` (whose buffers it reuses) and swapped into `out`
  // on success, so a collector that keeps both frames decodes without allocating once their
  // buffers have grown. On error `out` is untouched and `scratch` holds no meaning.
  static DecodeStatus Decode(std::span<const uint8_t> bytes, ReportFrame& out,
                             ReportFrame& scratch, const ReportKey& key = {},
                             uint64_t max_known_ext_type = kMaxKnownExtType);

  // Bytes the same frame would occupy in a naive fixed-width encoding (the bench's packing
  // baseline): per path record slot/epoch/target at 4 bytes and sent/lost at 8, per intra
  // record target at 4 and sent/lost at 8, plus a fixed 43-byte envelope (magic/version,
  // auth tag, pinger, window, seq, two counts, CRC — both encodings carry the tag, so the
  // packing comparison stays apples-to-apples).
  static size_t FixedWidthBytes(const ReportFrame& frame);
};

// LEB128 varint + zigzag building blocks, shared by the report codec and the window log and
// exposed for the codec tests and bench. Inline: a window-log record runs thousands of them.
inline void PutVarint(std::vector<uint8_t>& out, uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<uint8_t>(value));
}
// Reads a varint at *pos, advancing it. False when the bytes run out or the value would
// overflow 64 bits.
inline bool GetVarint(std::span<const uint8_t> bytes, size_t& pos, uint64_t& value) {
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
constexpr uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
constexpr int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

}  // namespace detector

#endif  // SRC_REPORT_CODEC_H_
