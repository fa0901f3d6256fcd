// In-memory span recording for the traced run. Every call the traced pipeline makes into a
// library layer is wrapped in a ScopedSpan; spans land in per-thread buffers (no locking on the
// hot path) and are analysed and written out only after the run ends.
//
// A span records its name, start and end (steady_clock ns), the window and segment it belongs
// to, the thread buffer it ran on and its parent span on that thread. A span's self time is
// its duration minus the durations of its direct children.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/net/transport.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  int name = 0;
  int parent = -1;  // index into the same thread buffer, -1 = top level
  int window = -1;
  int segment = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

struct SpanBuffer {
  int thread = 0;  // 0 = the driving thread, 1..N = pool task slots
  std::vector<Span> spans;
  std::vector<int> open;  // stack of open span indices
};

class SpanRecorder {
 public:
  explicit SpanRecorder(size_t worker_slots) {
    buffers_.resize(worker_slots + 1);
    for (size_t i = 0; i < buffers_.size(); ++i) {
      buffers_[i] = std::make_unique<SpanBuffer>();
      buffers_[i]->thread = static_cast<int>(i);
    }
  }

  // Registers a span name once, up front; the id is what ScopedSpan takes.
  int Name(const std::string& name) {
    const auto it = ids_.find(name);
    if (it != ids_.end()) {
      return it->second;
    }
    names_.push_back(name);
    ids_.emplace(name, static_cast<int>(names_.size() - 1));
    return static_cast<int>(names_.size() - 1);
  }
  const std::vector<std::string>& names() const { return names_; }

  SpanBuffer& main() { return *buffers_[0]; }
  SpanBuffer& worker(size_t slot) { return *buffers_[slot + 1]; }
  const std::vector<std::unique_ptr<SpanBuffer>>& buffers() const { return buffers_; }

  // Window/segment stamped onto new spans. Set only by the driving thread between parallel
  // phases (the pool's submit/wait handshake orders it before the workers read it).
  void SetPosition(int window, int segment) {
    window_ = window;
    segment_ = segment;
  }
  int window() const { return window_; }
  int segment() const { return segment_; }

  // Pool tasks record only while enabled (warm-up windows run untraced).
  void set_enabled(bool enabled) { enabled_ = enabled; }
  SpanBuffer* worker_buffer(size_t slot) { return enabled_ ? &worker(slot) : nullptr; }

 private:
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
  std::vector<std::string> names_;
  std::map<std::string, int> ids_;
  int window_ = -1;
  int segment_ = 0;
  bool enabled_ = false;
};

// The buffer spans on this thread go to; null disables recording on the thread.
inline thread_local SpanBuffer* tls_spans = nullptr;

class ScopedSpan {
 public:
  ScopedSpan(const SpanRecorder& recorder, int name) : buffer_(tls_spans) {
    if (buffer_ == nullptr) {
      return;
    }
    Span span;
    span.name = name;
    span.parent = buffer_->open.empty() ? -1 : buffer_->open.back();
    span.window = recorder.window();
    span.segment = recorder.segment();
    index_ = static_cast<int>(buffer_->spans.size());
    buffer_->spans.push_back(span);
    buffer_->open.push_back(index_);
    buffer_->spans.back().start_ns = NowNs();
  }
  ~ScopedSpan() {
    if (buffer_ == nullptr) {
      return;
    }
    buffer_->open.pop_back();
    if (discard_ && static_cast<size_t>(index_) + 1 == buffer_->spans.size()) {
      buffer_->spans.pop_back();
      return;
    }
    buffer_->spans[static_cast<size_t>(index_)].end_ns = NowNs();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Drops the span when it closes, provided no child span was recorded under it: polls that
  // found nothing to do would otherwise flood the buffers.
  void Discard() { discard_ = true; }

 private:
  SpanBuffer* buffer_;
  int index_ = -1;
  bool discard_ = false;
};

// Transport decorator that records a span around every Send and every Receive that returns a
// frame, on the calling thread's buffer — so the emitter's encode time and the wire's send time
// separate as parent and child, and so do the collector's receive and decode+fold times.
class TimedTransport final : public detector::Transport {
 public:
  TimedTransport(std::unique_ptr<detector::Transport> inner, const SpanRecorder& recorder,
                 int send_name, int recv_name)
      : inner_(std::move(inner)),
        recorder_(recorder),
        send_name_(send_name),
        recv_name_(recv_name) {}

  bool Send(std::span<const uint8_t> frame) override {
    ScopedSpan span(recorder_, send_name_);
    return inner_->Send(frame);
  }
  bool Receive(std::vector<uint8_t>& out) override {
    ScopedSpan span(recorder_, recv_name_);
    const bool received = inner_->Receive(out);
    if (!received) {
      span.Discard();
    }
    return received;
  }
  void Flush() override { inner_->Flush(); }
  detector::TransportStats stats() const override { return inner_->stats(); }

 private:
  std::unique_ptr<detector::Transport> inner_;
  const SpanRecorder& recorder_;
  const int send_name_;
  const int recv_name_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
