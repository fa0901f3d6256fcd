#include "src/anomaly/rtt_sketch.h"

#include <algorithm>

namespace detector {

int64_t RttSketch::Count(int bin) const {
  const auto it = std::lower_bound(bins_.begin(), bins_.end(), bin, BinBelow);
  return it != bins_.end() && it->bin == bin ? it->count : 0;
}

void RttSketch::Merge(const RttSketch& other, int64_t sign) {
  DCHECK(&other != this) << "merge a copy to retract a sketch from itself";
  if (other.empty()) return;
  if (empty()) num_bins_ = other.num_bins_;
  CHECK(num_bins_ == other.num_bins_)
      << "merging sketches with different bin counts: " << num_bins_ << " vs "
      << other.num_bins_;
  if (bins_.empty()) {
    bins_ = other.bins_;
    if (sign != 1) {
      for (BinCount& b : bins_) b.count *= sign;
    }
  } else {
    // Both sides ascend, so each search starts where the previous one ended.
    auto it = bins_.begin();
    for (const BinCount& add : other.bins_) {
      it = std::lower_bound(it, bins_.end(), add.bin, BinBelow);
      if (it == bins_.end() || it->bin != add.bin) {
        it = bins_.insert(it, BinCount{add.bin, sign * add.count}) + 1;
      } else if ((it->count += sign * add.count) == 0) {
        it = bins_.erase(it);
      } else {
        ++it;
      }
    }
  }
  total_ += sign * other.total_;
  if (total_ == 0 && bins_.empty()) {
    // A merge that cancels every count (the watchdog retract path) returns the sketch to
    // the empty state, so a running fold stays bit-identical to a view rebuilt from the
    // surviving records — which never merges anything for a fully retracted slot.
    num_bins_ = 0;
  }
}

int64_t RttSketch::Quantile(double q) const {
  if (total_ <= 0) return 0;
  const double clamped = std::clamp(q, 0.0, 1.0);
  // Rank of the q-quantile sample, 1-based: ceil(q * total), at least 1.
  int64_t rank = static_cast<int64_t>(clamped * static_cast<double>(total_));
  if (static_cast<double>(rank) < clamped * static_cast<double>(total_)) ++rank;
  rank = std::clamp<int64_t>(rank, 1, total_);
  // Empty bins add nothing to the running sum, so walking only the non-zero ones finds the
  // same first bin at which it reaches the rank.
  int64_t cumulative = 0;
  for (const BinCount& b : bins_) {
    cumulative += b.count;
    if (cumulative >= rank) return BinLowerUs(b.bin);
  }
  return BinLowerUs(num_bins_ - 1);
}

}  // namespace detector
