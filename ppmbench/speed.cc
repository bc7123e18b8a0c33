#include "speed.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>

#include "alloc_count.h"
#include "recorder.h"
#include "sim/rng.h"

namespace ppmbench {
namespace {

constexpr int kQueued = 256;   // events in flight
constexpr int kSteps = 3000;   // events fired per run

struct Event {
  uint64_t when;
  uint64_t seq;
  std::function<void()> fire;
};
struct Later {
  bool operator()(const Event& a, const Event& b) const {
    return a.when != b.when ? a.when > b.when : a.seq > b.seq;
  }
};

uint64_t Kernel() {
  ppm::sim::Rng rng(0x5eed);
  std::priority_queue<Event, std::vector<Event>, Later> queue;
  std::unordered_map<uint64_t, uint64_t> table;
  uint64_t seq = 0;
  uint64_t sink = 0;
  auto post = [&](uint64_t when) {
    auto msg = std::make_shared<std::vector<uint8_t>>(16 + rng.Below(240));
    for (size_t i = 0; i < msg->size(); i += 8) (*msg)[i] = static_cast<uint8_t>(rng.Next());
    queue.push({when, seq++, [msg, &table, &sink] {
                  uint64_t h = 1469598103934665603ULL;
                  for (uint8_t b : *msg) h = (h ^ b) * 1099511628211ULL;
                  table[h & 4095] += msg->size();
                  sink ^= h;
                }});
  };
  for (int i = 0; i < kQueued; ++i) post(rng.Below(1000));
  for (int i = 0; i < kSteps; ++i) {
    Event ev = queue.top();
    queue.pop();
    ev.fire();
    post(ev.when + 1 + rng.Below(1000));
  }
  return sink + table.size();
}

int64_t TimeKernel() {
  const int64_t t0 = WallNs();
  volatile uint64_t sink = Kernel();
  (void)sink;
  return WallNs() - t0;
}

}  // namespace

RefClock::RefClock() { kernel_ns_.reserve(kMaxSamples); }

void RefClock::Sample() {
  {
    alloc::ScratchHeap scratch;
    // The process's first run also faults in the pool's pages.
    static const int64_t first_run_ns = TimeKernel();
    (void)first_run_ns;
    last_kernel_ns_ = TimeKernel();
  }
  if (kernel_ns_.size() < kMaxSamples) kernel_ns_.push_back(last_kernel_ns_);
}

void RefClock::Start() {
  Sample();
  segment_start_ = WallNs();
}

void RefClock::Tick() {
  const int64_t now = WallNs();
  if (now - segment_start_ < kSegmentNs) return;
  CloseSegment(now);
  segment_start_ = WallNs();
}

void RefClock::Stop() { CloseSegment(WallNs()); }

void RefClock::CloseSegment(int64_t now) {
  const int64_t ns = now - segment_start_;
  const double before = static_cast<double>(last_kernel_ns_);
  Sample();
  const double around = (before + static_cast<double>(last_kernel_ns_)) / 2;
  wall_ns_ += ns;
  ref_ns_ += static_cast<double>(ns) * kReferenceKernelNs / around;
}

double RefClock::MedianKernelNs() {
  if (kernel_ns_.empty()) return 0;
  auto mid = kernel_ns_.begin() + static_cast<std::ptrdiff_t>(kernel_ns_.size() / 2);
  std::nth_element(kernel_ns_.begin(), mid, kernel_ns_.end());
  return static_cast<double>(*mid);
}

}  // namespace ppmbench
