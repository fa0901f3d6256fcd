// Deterministic fixed-bin quantile sketch for path RTT samples.
//
// Bins are HDR-style log-linear over integer microseconds: values 0..3 get one
// bin each, then every octave [2^b, 2^(b+1)) splits into 4 sub-bins. The bin
// index is computed with pure integer arithmetic (bit_width + shifts), so the
// sketch is bit-identical on every platform and under any shard/thread split —
// the same discipline as the (sent, lost) counters.
//
// Storage is sparse: only the non-zero (bin, count) pairs, in ascending bin
// order. A path's per-segment sketch holds a handful of samples, so it costs
// what it holds rather than the range its bins cover. Merging adds counts bin by
// bin (integer addition: commutative, associative, and signed — sign = -1
// retracts a previously merged sketch, mirroring the watchdog retract/re-add
// path in the ObservationStore); a bin whose count reaches zero is dropped, so
// equal counts always mean equal storage.
//
// A default-constructed sketch is *empty* (bin count 0). Merging into an empty
// sketch adopts the other side's bin count; recording requires explicit
// construction with a bin count. Empty sketches compare unequal to allocated
// all-zero sketches, so producers skip empty sketches entirely (nothing is
// recorded or put on the wire for a path with no RTT samples) to keep direct
// and report-plane folds bit-identical.
#ifndef SRC_ANOMALY_RTT_SKETCH_H_
#define SRC_ANOMALY_RTT_SKETCH_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/check.h"

namespace detector {

class RttSketch {
 public:
  // 4 sub-bins per octave: ~25% relative quantile error, purely integer mapping.
  static constexpr int kSubBins = 4;
  // 80 bins span [0us, ~2.1s) with 4 sub-bins/octave; larger values clamp into
  // the last bin.
  static constexpr int kDefaultBins = 80;
  static constexpr int kMaxBins = 4096;

  // One non-zero bin.
  struct BinCount {
    int32_t bin = 0;
    int64_t count = 0;

    bool operator==(const BinCount&) const = default;
  };

  RttSketch() = default;  // empty: bin count 0, total 0
  explicit RttSketch(int num_bins) : num_bins_(num_bins) {
    CHECK(num_bins >= kSubBins && num_bins <= kMaxBins)
        << "rtt sketch bins out of range: " << num_bins;
  }

  // Bin index of an RTT in microseconds (negative values clamp to bin 0,
  // overflow clamps to the last bin).
  static int BinOf(int64_t rtt_us, int num_bins) {
    if (rtt_us < kSubBins) return rtt_us < 0 ? 0 : static_cast<int>(rtt_us);
    const int width = std::bit_width(static_cast<uint64_t>(rtt_us));  // >= 3
    const int shift = width - 3;  // mantissa in [4, 8)
    const int64_t mantissa = rtt_us >> shift;
    const int index = (shift + 1) * kSubBins + static_cast<int>(mantissa) - kSubBins;
    return index < num_bins ? index : num_bins - 1;
  }

  // Inclusive lower bound of a bin in microseconds.
  static int64_t BinLowerUs(int bin) {
    if (bin < kSubBins) return bin;
    const int shift = bin / kSubBins - 1;
    return static_cast<int64_t>(kSubBins + bin % kSubBins) << shift;
  }

  // Exclusive upper bound; the last bin of a num_bins-sketch is unbounded.
  static int64_t BinUpperUs(int bin, int num_bins) {
    if (bin >= num_bins - 1) return INT64_MAX;
    return BinLowerUs(bin + 1);
  }

  bool empty() const { return num_bins_ == 0; }
  int num_bins() const { return num_bins_; }
  int64_t total() const { return total_; }
  // The non-zero bins, ascending.
  std::span<const BinCount> bins() const { return bins_; }
  int64_t Count(int bin) const;

  // Pre-sizes the pair storage for `n` distinct bins (a capacity hint only).
  void Reserve(int n) { bins_.reserve(static_cast<size_t>(n)); }

  // Drops every count but keeps the bin count and the pair storage: a zero sketch, ready to
  // record the next path's samples without a new heap block.
  void ClearCounts() {
    bins_.clear();
    total_ = 0;
  }

  void Record(int64_t rtt_us) {
    DCHECK(num_bins_ != 0) << "recording into an unallocated sketch";
    AddCount(BinOf(rtt_us, num_bins_), 1);
  }

  // Adds (sign = +1) or retracts (sign = -1) every count of `other`. Merging a
  // non-empty sketch into an empty one adopts its bin count; merging an empty
  // sketch is a no-op.
  void Merge(const RttSketch& other, int64_t sign = 1) {
    DCHECK(&other != this) << "merge a copy to retract a sketch from itself";
    Merge(other.bins_, other.num_bins_, sign);
  }

  // The same merge for a sketch held as its parts: the ascending non-zero bins of a
  // `num_bins`-bin sketch (num_bins = 0 is the empty sketch) — how the store and the report
  // frames keep a record's bins, in one flat array per shard or frame. One descending pass
  // moves every pair at most once. `bins` must not alias this sketch's storage.
  void Merge(std::span<const BinCount> bins, int num_bins, int64_t sign = 1);

  // Raw count accumulation. Appending past the highest bin — what adding ascending
  // bins does — costs O(1).
  void AddCount(int bin, int64_t count) {
    DCHECK(bin >= 0 && bin < num_bins_);
    total_ += count;
    if (bins_.empty() || bins_.back().bin < bin) {
      if (count != 0) bins_.push_back(BinCount{bin, count});
      return;
    }
    const auto it = std::lower_bound(bins_.begin(), bins_.end(), bin, BinBelow);
    if (it->bin != bin) {
      if (count != 0) bins_.insert(it, BinCount{bin, count});
    } else if ((it->count += count) == 0) {
      bins_.erase(it);
    }
  }

  // Lower bound of the bin holding the q-quantile sample (q in [0, 1]); the
  // true quantile lies in [result, BinUpperUs(bin)). Returns 0 when empty.
  int64_t Quantile(double q) const;

  // Back to the empty sketch; the pair storage is kept for the next merge.
  void Clear() {
    bins_.clear();
    num_bins_ = 0;
    total_ = 0;
  }

  bool operator==(const RttSketch&) const = default;

 private:
  static bool BinBelow(const BinCount& b, int bin) { return b.bin < bin; }

  std::vector<BinCount> bins_;  // non-zero counts only, ascending by bin
  int32_t num_bins_ = 0;
  int64_t total_ = 0;
};

}  // namespace detector

#endif  // SRC_ANOMALY_RTT_SKETCH_H_
