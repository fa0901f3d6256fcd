// Heap allocations per steady-state window. The binary replaces the global operator new with
// a counting one, so it runs as its own test executable: every allocation anywhere in the
// process — probe shards, emitters, codec, collectors, store, analyzer — is counted.
//
// The shape is the report-plane ingest pipeline with the anomaly plane's RTT channel on:
// PMC fat-tree(8), 10 probe segments per window, 2 collectors, a gray link, one probe
// thread (so the count is deterministic). After warm-up windows every per-record and
// per-frame buffer — store shard arenas, emitter frames, loopback frame buffers, collector
// dedup vectors, decode scratch, running sketches — has reached its size, and a window
// allocates only what scales with shards, segments and diagnoses: per shard and segment the
// pinger's RTT scratch (640 here), and per segment and boundary the shard work lists, the
// segment's scenario and the analyzer's results: 1,039 in all. The same window allocated
// 24,868 times (38.9 per frame) when every RTT record carried its own sketch, every segment
// built fresh emitters and every frame decoded into a fresh frame; a per-record or per-frame
// heap block anywhere on that path breaks the bound.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>

#include "src/detector/system.h"
#include "src/routing/fattree_routing.h"
#include "src/sim/anomaly_scenarios.h"
#include "src/topo/fattree.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace detector {
namespace {

// Allocations one steady-state window may make: 16x below the per-record design's count. The
// margin over the 1,039 measured is smaller than the 640 that one heap block per frame adds.
constexpr uint64_t kAllocationBound = 1500;

uint64_t Allocations() { return g_allocations.load(std::memory_order_relaxed); }

TEST(Allocations, SteadyStateReportPlaneWindowWithRtt) {
  const FatTree ft(8);
  const FatTreeRouting routing(ft);
  DetectorSystemOptions options;
  options.controller.packets_per_second = 50;
  options.segments_per_window = 10;
  options.diagnose_every_segments = 1;
  options.probe_threads = 1;
  options.report_plane = true;
  options.report_collectors = 2;
  options.anomaly = true;
  DetectorSystem system(routing, options);

  Rng pick(5);
  const FailureScenario scenario =
      GrayLatencyScenario(SampleMonitoredLink(ft.topology(), pick), /*added_delay_us=*/2500.0);
  Rng rng(2027);
  constexpr int kWarmupWindows = 3;
  for (int w = 0; w < kWarmupWindows; ++w) {
    system.RunWindowStreaming(scenario, {}, rng);
  }

  const uint64_t frames_before = system.collector_group()->stats().frames_folded;
  const uint64_t before = Allocations();
  const DetectorSystem::StreamingWindowResult result =
      system.RunWindowStreaming(scenario, {}, rng);
  const uint64_t allocations = Allocations() - before;
  const uint64_t frames = system.collector_group()->stats().frames_folded - frames_before;

  // Non-vacuous: the window probed, shipped frames and carried RTT samples.
  ASSERT_GT(result.window.probes_sent, 0);
  ASSERT_GT(frames, 0u);
  int64_t samples = 0;
  for (const RttSketch& sketch : system.last_window_rtt_totals()) {
    samples += sketch.total();
  }
  ASSERT_GT(samples, 0);
  ASSERT_GT(allocations, 0u) << "the counting operator new did not replace the global one";

  std::cout << "steady-state window: " << allocations << " allocations, " << frames
            << " frames, " << static_cast<double>(allocations) / static_cast<double>(frames)
            << " per frame" << std::endl;
  EXPECT_LT(allocations, kAllocationBound) << frames << " frames";
}

}  // namespace
}  // namespace detector
