// alloc_count.cc — a counting global operator new/delete.
//
// Linked into the benchmark executables only.  Counting is off until
// alloc::Start() and off again after alloc::Stop(), so only the timed
// window is counted; the replacement forwards to malloc/free either way,
// except inside an alloc::ScratchHeap scope.
// The simulator is single-threaded, so plain globals suffice.
#include <cstdlib>
#include <new>

#include "alloc_count.h"

namespace ppmbench::alloc {
namespace {

bool g_on = false;
uint64_t g_count = 0;
uint64_t g_bytes = 0;

// The ScratchHeap pool: a bump allocator, emptied when the scope ends.
constexpr std::size_t kPoolBytes = 8 << 20;
alignas(64) unsigned char g_pool[kPoolBytes];
std::size_t g_pool_used = 0;
bool g_scratch = false;

void* PoolAllocate(std::size_t size, std::size_t align) {
  const std::size_t start = (g_pool_used + align - 1) / align * align;
  if (start + size > kPoolBytes) return nullptr;  // full: fall back to the heap
  g_pool_used = start + size;
  return g_pool + start;
}

void Free(void* p) {
  const auto* b = static_cast<unsigned char*>(p);
  if (b < g_pool || b >= g_pool + kPoolBytes) std::free(p);
}

void* Allocate(std::size_t size) {
  if (g_scratch) {
    if (void* p = PoolAllocate(size, __STDCPP_DEFAULT_NEW_ALIGNMENT__)) return p;
  }
  if (g_on) {
    ++g_count;
    g_bytes += size;
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  if (g_scratch) {
    if (void* p = PoolAllocate(size, static_cast<std::size_t>(align))) return p;
  }
  if (g_on) {
    ++g_count;
    g_bytes += size;
  }
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void Start() { g_on = true; }
void Stop() { g_on = false; }
void Reset() {
  g_count = 0;
  g_bytes = 0;
}
uint64_t count() { return g_count; }
uint64_t bytes() { return g_bytes; }

ScratchHeap::ScratchHeap() { g_scratch = true; }
ScratchHeap::~ScratchHeap() {
  g_scratch = false;
  g_pool_used = 0;
}

}  // namespace ppmbench::alloc

using ppmbench::alloc::Allocate;
using ppmbench::alloc::AllocateAligned;
using ppmbench::alloc::Free;

void* operator new(std::size_t size) { return Allocate(size); }
void* operator new[](std::size_t size) { return Allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}

void operator delete(void* p) noexcept { Free(p); }
void operator delete[](void* p) noexcept { Free(p); }
void operator delete(void* p, std::size_t) noexcept { Free(p); }
void operator delete[](void* p, std::size_t) noexcept { Free(p); }
void operator delete(void* p, std::align_val_t) noexcept { Free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { Free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { Free(p); }
