// WindowLog: append-only on-disk retention behind the WindowSink seam — one record per sealed
// window, in flat binary segment files under a directory. The record framing reuses the report
// plane's wire discipline (src/report/codec): varint/zigzag payload packing, a SipHash-2-4 tag
// over the payload keyed like the wire frames, and a trailing CRC-32, so a torn write, a
// corrupted tail, or a deliberately modified record is rejected at the frame boundary exactly
// like a damaged datagram is — nothing past the last valid CRC boundary is trusted.
//
// Record frame (inside a segment file, after the 8-byte segment header):
//
//   [varint]  frame length L (bytes of everything after this varint)
//   [0]       magic 0xD7          -- same lead byte as the wire frames
//   [1]       magic 0x57          -- 'W' distinguishes log records from wire frames (0x52)
//   [2]       version (2; readers reject every other version)
//   [3..10]   SipHash-2-4 tag of the payload under the log key
//   [11..L-5] payload (varint/zigzag; see EncodeWindowRecord)
//   [L-4..L-1] CRC-32 of bytes [0, L-4)
//
// Segment files are named wlog-<first window index, hex>.seg and rotate every
// max_records_per_segment records; with max_segments > 0 the oldest segments are deleted as
// new ones open (bounded retention). Files are plain flat bytes — an mmap of a segment is
// directly decodable. Reopening a directory recovers: the writer scans the newest segment,
// truncates anything after the last valid record, and appends from there. A record that
// passes its CRC but fails authentication or parsing is no torn write (another key or layout
// wrote it), so the writer refuses the directory and leaves the segment untouched.
#ifndef SRC_HISTORY_WINDOW_LOG_H_
#define SRC_HISTORY_WINDOW_LOG_H_

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "src/history/window_sink.h"
#include "src/report/codec.h"

namespace detector {

enum class WindowLogStatus {
  kOk,
  kTruncated,   // bytes end mid-frame: recover at the previous record boundary
  kBadMagic,
  kBadVersion,  // format version this reader does not speak — rejected, never half-parsed
  kBadAuth,     // SipHash tag mismatch (wrong key or deliberate modification)
  kBadCrc,      // random damage
  kMalformed,   // CRC passed but the payload does not parse (encoder bug / wrong layout)
};

const char* WindowLogStatusName(WindowLogStatus status);

struct WindowLogOptions {
  size_t max_records_per_segment = 256;
  size_t max_segments = 0;  // 0 = unbounded retention
  ReportKey key;            // payload authentication key (defaults like the wire frames)
};

// Appends one length-prefixed record frame for `window` to `out`.
void EncodeWindowRecord(const SealedWindow& window, const ReportKey& key,
                        std::vector<uint8_t>& out);

// Decodes the record frame starting at `pos`; on kOk advances `pos` past it. On any failure
// `pos` is left at the record's start — the recovery boundary.
WindowLogStatus DecodeWindowRecord(std::span<const uint8_t> bytes, size_t& pos,
                                   const ReportKey& key, SealedWindow& out);

// Append side: a WindowSink writing every sealed window through to disk, with rotation and
// bounded retention. Construction opens (or creates) the directory and recovers the newest
// segment's tail; ok() is false only when the directory is unusable or holds another key's
// records, in which case every Append is a no-op — retention failure must never take down
// the live pipeline.
class WindowLogWriter : public WindowSink {
 public:
  explicit WindowLogWriter(std::string dir, WindowLogOptions options = WindowLogOptions{});
  ~WindowLogWriter() override;

  WindowLogWriter(const WindowLogWriter&) = delete;
  WindowLogWriter& operator=(const WindowLogWriter&) = delete;

  void OnWindowSealed(const SealedWindow& window) override { Append(window); }

  // Encodes, appends, and flushes one record; rotates/retires segments as configured.
  bool Append(const SealedWindow& window);

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }
  const std::string& dir() const { return dir_; }
  uint64_t records_appended() const { return records_appended_; }
  uint64_t bytes_appended() const { return bytes_appended_; }
  uint64_t segments_retired() const { return segments_retired_; }
  // Bytes of invalid tail discarded while recovering the newest segment at open.
  uint64_t recovered_tail_bytes() const { return recovered_tail_bytes_; }

 private:
  bool OpenDirectory();
  bool OpenSegment(uint64_t first_window_index);
  void CloseSegment();
  void EnforceRetention();

  std::string dir_;
  WindowLogOptions options_;
  bool ok_ = false;
  std::string error_;
  std::FILE* file_ = nullptr;
  size_t records_in_segment_ = 0;
  std::vector<std::string> segment_paths_;  // sorted oldest-first; back() is the open one
  uint64_t records_appended_ = 0;
  uint64_t bytes_appended_ = 0;
  uint64_t segments_retired_ = 0;
  uint64_t recovered_tail_bytes_ = 0;
  std::vector<uint8_t> scratch_;
};

// Read side: decodes a whole directory, tolerating a damaged tail (the crash-recovery case).
// Reading stops at the first invalid record of each segment — everything before the last
// valid CRC boundary is kept, everything after is counted, never trusted.
struct WindowLogReadResult {
  std::vector<SealedWindow> windows;
  size_t segments_read = 0;
  uint64_t records_rejected = 0;       // invalid records/tails encountered (counted once per
                                       // segment — reading stops at the first)
  uint64_t bytes_discarded = 0;        // bytes after the last valid boundary, across segments
  WindowLogStatus first_reject = WindowLogStatus::kOk;  // cause of the first rejection
  bool clean = true;                   // false when anything was rejected or discarded
  std::string error;                   // non-empty only when the directory itself is unusable
};

WindowLogReadResult ReadWindowLog(const std::string& dir,
                                  const ReportKey& key = ReportKey{});

// Decodes one segment file's bytes (header + records) — the unit the reader and the writer's
// reopen-recovery share, exposed for the on-disk-format robustness tests.
// Returns the byte offset of the end of the last valid record (the recovery boundary).
size_t DecodeSegment(std::span<const uint8_t> bytes, const ReportKey& key,
                     std::vector<SealedWindow>& out, WindowLogStatus& tail_status);

// Segment file header: 8 bytes, magic + format version.
inline constexpr uint8_t kSegmentHeader[8] = {'d', 'T', 'e', 'c', 'W', 'L', 'g', '1'};

}  // namespace detector

#endif  // SRC_HISTORY_WINDOW_LOG_H_
