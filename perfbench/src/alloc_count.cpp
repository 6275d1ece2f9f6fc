// Counting global allocator for the benchmark binary.
//
// Replacing the global operator new is per-binary, so this instruments the
// whole process (library, service threads, the benchmark's own code).
// Counting is off by default; fba_perfbench switches it on only around the
// timed entry calls, so allocs_per_op excludes set-up and bookkeeping
// between ops.

#include "alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<bool> g_count_allocs{false};

inline void note_alloc() {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
}
}  // namespace

namespace perfbench {

void set_alloc_counting(bool on) {
  g_count_allocs.store(on, std::memory_order_relaxed);
}

std::uint64_t alloc_count() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

}  // namespace perfbench

// GCC pairs the replaced operator new (malloc-backed) with the free() in the
// replaced operator delete at inlined call sites and flags the pair as a
// new/free mismatch; the pairing is exactly the contract here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  note_alloc();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  note_alloc();
  const auto align = static_cast<std::size_t>(al);
  const std::size_t rounded = ((size ? size : 1) + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, rounded)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return ::operator new(size, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#pragma GCC diagnostic pop
