// speed.h — wall-clock time rescaled to the reference machine's speed.
//
// The benchmark shares its host with other tenants, and the speed the
// host gives one core drifts by up to 2x over minutes and within a
// single run.  The drift is in the speed of each cycle (shared caches and
// cores), not in scheduling: CPU time drifts as much as wall time.  So
// the benchmark times a fixed reference kernel at short intervals between
// stretches of the program's own work and rescales each stretch by the
// kernel's time around it.  A stretch's *reference time* is how long it
// would have taken had the host run the kernel at its nominal time,
// kReferenceKernelNs.  The kernel's code does not depend on the program,
// so a change to the program moves reference time as it moves wall time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ppmbench {

// A round figure for the kernel's wall time on the reference machine
// (4-vCPU KVM guest, Intel Xeon at 2.1 GHz), where it took 1.7-2.9 ms as
// the host's speed drifted.  It only sets the scale of reference time.
inline constexpr double kReferenceKernelNs = 2.0e6;

// Times a stretch of work that runs in steps, sampling the reference
// kernel before the first step, after the last one and between steps
// every kSegmentNs of work.  Each segment's wall time is scaled by
// kReferenceKernelNs over the mean of the two kernel times around it.
//
// The kernel is a small discrete-event loop made of the parts the
// simulator is made of: a heap of timed events holding std::function
// closures that share heap-allocated messages, and a hash table the events
// update.  Of the kernels tried, it tracked the program's speed best.
class RefClock {
 public:
  static constexpr int64_t kSegmentNs = 40'000'000;

  RefClock();
  void Start();
  // Between two steps of the work.
  void Tick();
  void Stop();

  int64_t wall_ns() const { return wall_ns_; }  // the work's own, kernel runs excluded
  double ref_ns() const { return ref_ns_; }
  // Median kernel time (ns) over the first kMaxSamples samples; reorders
  // them, so call it after Stop().
  double MedianKernelNs();

 private:
  // The sample store is allocated once, so the number of samples, which
  // depends on the host's speed, does not shape the heap.
  static constexpr std::size_t kMaxSamples = 4096;

  // Times the kernel in a ScratchHeap.
  void Sample();
  void CloseSegment(int64_t now);

  int64_t segment_start_ = 0;
  int64_t wall_ns_ = 0;
  double ref_ns_ = 0;
  int64_t last_kernel_ns_ = 0;
  std::vector<int64_t> kernel_ns_;
};

}  // namespace ppmbench
