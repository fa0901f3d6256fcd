#include "src/net/impairment.h"

#include <algorithm>

namespace detector {

ImpairmentTransport::ImpairmentTransport(std::unique_ptr<Transport> inner,
                                         ImpairmentProfile profile)
    : profile_(profile), inner_(std::move(inner)), rng_(profile.seed) {}

bool ImpairmentTransport::Send(std::span<const uint8_t> frame) {
  std::lock_guard<std::mutex> lock(mu_);
  ++tick_;
  ++stats_.frames_sent;
  stats_.bytes_sent += frame.size();

  // Burst loss: a congestion event eats a run of consecutive frames, the trigger included.
  if (burst_remaining_ > 0) {
    --burst_remaining_;
    ++stats_.frames_dropped;
    ++impairment_stats_.frames_dropped_burst;
    return ReleaseAndReportLocked();  // the sender cannot observe an in-flight loss
  }
  if (profile_.burst_loss_rate > 0.0 && rng_.NextBernoulli(profile_.burst_loss_rate)) {
    burst_remaining_ = std::max<uint64_t>(profile_.burst_length, 1) - 1;
    ++stats_.frames_dropped;
    ++impairment_stats_.frames_dropped_burst;
    return ReleaseAndReportLocked();
  }

  std::vector<uint8_t> staged(frame.begin(), frame.end());
  if (profile_.corrupt_rate > 0.0 && rng_.NextBernoulli(profile_.corrupt_rate) &&
      !staged.empty()) {
    if (rng_.NextDouble() < profile_.truncate_fraction) {
      // Truncate to a strict prefix (possibly empty).
      staged.resize(rng_.NextBounded(staged.size()));
      ++impairment_stats_.frames_truncated;
    } else {
      staged[rng_.NextBounded(staged.size())] ^=
          static_cast<uint8_t>(1u << rng_.NextBounded(8));
      ++impairment_stats_.frames_corrupted;
    }
  }
  const bool dup = profile_.dup_rate > 0.0 && rng_.NextBernoulli(profile_.dup_rate);
  if (dup) {
    ++impairment_stats_.frames_duplicated;
  }
  StageLocked(staged);
  if (dup) {
    StageLocked(std::move(staged));
  }
  return ReleaseAndReportLocked();
}

void ImpairmentTransport::StageLocked(std::vector<uint8_t> frame) {
  uint64_t release = tick_ + profile_.delay_ticks;
  if (profile_.jitter_ticks > 0) {
    release += rng_.NextBounded(profile_.jitter_ticks + 1);
  }
  if (release > tick_) {
    ++impairment_stats_.frames_delayed;
  }
  staged_.emplace(std::make_pair(release, stage_seq_++), std::move(frame));
}

void ImpairmentTransport::ReleaseReadyLocked() {
  while (!staged_.empty() && staged_.begin()->first.first <= tick_) {
    if (profile_.rate_limit_per_tick > 0) {
      if (last_release_tick_ != tick_) {
        last_release_tick_ = tick_;
        released_this_tick_ = 0;
      }
      if (released_this_tick_ >= profile_.rate_limit_per_tick) {
        // Bottleneck saturated this tick: slip the head to the next tick. Re-keying keeps the
        // map ordered and the accounting visible (this is where queueing delay comes from).
        auto node = staged_.extract(staged_.begin());
        node.key().first = tick_ + 1;
        staged_.insert(std::move(node));
        ++impairment_stats_.frames_rate_limited;
        return;
      }
      ++released_this_tick_;
    }
    if (!inner_->Send(staged_.begin()->second)) {
      ++refusals_unreported_;
    }
    staged_.erase(staged_.begin());
  }
}

bool ImpairmentTransport::ReleaseAndReportLocked() {
  ReleaseReadyLocked();
  if (refusals_unreported_ == 0) {
    return true;
  }
  --refusals_unreported_;
  return false;
}

bool ImpairmentTransport::Receive(std::vector<uint8_t>& out) {
  return inner_->Receive(out);
}

void ImpairmentTransport::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, frame] : staged_) {
    if (!inner_->Send(frame)) {
      ++refusals_unreported_;
    }
  }
  staged_.clear();
  inner_->Flush();
}

TransportStats ImpairmentTransport::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  TransportStats total = stats_;
  // Frames the decorator forwarded but the inner backend then dropped (a UDP socket's
  // send-side loss) are losses too; received comes from the inner side, where the consumer
  // actually pops.
  total.frames_dropped += inner_->stats().frames_dropped;
  total.frames_received = inner_->stats().frames_received;
  return total;
}

}  // namespace detector
