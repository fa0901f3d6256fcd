#include "src/net/loopback.h"

namespace detector {

bool LoopbackTransport::Send(std::span<const uint8_t> frame) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.frames_sent;
  stats_.bytes_sent += frame.size();
  if (spare_.empty()) {
    queue_.emplace_back(frame.begin(), frame.end());
  } else {
    queue_.push_back(std::move(spare_.back()));
    spare_.pop_back();
    queue_.back().assign(frame.begin(), frame.end());
  }
  return true;
}

bool LoopbackTransport::Receive(std::vector<uint8_t>& out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (queue_.empty()) {
    return false;
  }
  out.swap(queue_.front());
  if (queue_.front().capacity() > 0) {
    spare_.push_back(std::move(queue_.front()));
  }
  queue_.pop_front();
  ++stats_.frames_received;
  return true;
}

TransportStats LoopbackTransport::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace detector
