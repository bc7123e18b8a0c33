// alloc_count.h — heap allocation counts of the benchmark's timed window.
//
// alloc_count.cc replaces the global operator new/delete of the binary
// it is linked into; these functions switch its counting on and off.
#pragma once

#include <cstdint>

namespace ppmbench::alloc {

void Start();
void Stop();
void Reset();
uint64_t count();  // allocations while counting was on
uint64_t bytes();  // bytes requested by those allocations

// While one is alive, allocations come from a fixed private pool, are not
// counted, and are all released when it ends; whatever was allocated in
// its scope must be freed by then.  The reference kernel (speed.h) runs
// under one: how often it runs depends on the host's speed, and it must
// leave no trace in the program's heap or in the process's peak memory.
class ScratchHeap {
 public:
  ScratchHeap();
  ~ScratchHeap();
  ScratchHeap(const ScratchHeap&) = delete;
  ScratchHeap& operator=(const ScratchHeap&) = delete;
};

}  // namespace ppmbench::alloc
