#include "src/anomaly/rtt_sketch.h"

#include <algorithm>

namespace detector {

int64_t RttSketch::Count(int bin) const {
  const auto it = std::lower_bound(bins_.begin(), bins_.end(), bin, BinBelow);
  return it != bins_.end() && it->bin == bin ? it->count : 0;
}

void RttSketch::Merge(std::span<const BinCount> bins, int num_bins, int64_t sign) {
  if (num_bins == 0) return;
  if (empty()) num_bins_ = num_bins;
  CHECK(num_bins_ == num_bins)
      << "merging sketches with different bin counts: " << num_bins_ << " vs " << num_bins;
  // The merged pairs are this sketch's plus the added bins it lacks; grow once to that size.
  size_t missing = 0;
  for (size_t i = 0, j = 0; j < bins.size(); ++j) {
    while (i < bins_.size() && bins_[i].bin < bins[j].bin) ++i;
    if (i == bins_.size() || bins_[i].bin != bins[j].bin) ++missing;
  }
  size_t i = bins_.size();
  size_t out = i + missing;
  bins_.resize(out);
  // Fill from the top: each slot written is at or above every pair still to be read, so the
  // pairs below the lowest added bin never move.
  int64_t added = 0;
  bool cancelled = false;
  for (size_t j = bins.size(); j-- > 0;) {
    added += bins[j].count;
    while (i > 0 && bins_[i - 1].bin > bins[j].bin) bins_[--out] = bins_[--i];
    if (i > 0 && bins_[i - 1].bin == bins[j].bin) {
      const int64_t count = bins_[--i].count + sign * bins[j].count;
      cancelled = cancelled || count == 0;
      bins_[--out] = BinCount{bins[j].bin, count};
    } else {
      bins_[--out] = BinCount{bins[j].bin, sign * bins[j].count};
    }
  }
  if (cancelled) {
    std::erase_if(bins_, [](const BinCount& b) { return b.count == 0; });
  }
  total_ += sign * added;
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
