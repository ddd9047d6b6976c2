// Counting global operator new, linked into the benchmark binary only: it
// reports heap allocations per event without touching the engine. Counting
// is off until SetAllocCounting(true), so runs that do not report
// alloc.per_event pay one relaxed load per allocation. Each thread bumps
// its own slot (a relaxed load+store, no locked instruction); each slot
// has a cache line of its own, so threads never write to a shared line.
#include <atomic>
#include <cstdlib>
#include <new>

#include "probe.h"

namespace {

struct alignas(64) Slot {
  std::atomic<int64_t> n{0};
};

constexpr int kSlots = 256;
Slot g_slots[kSlots];
std::atomic<int> g_next_slot{0};
std::atomic<bool> g_counting{false};

void Count() {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  thread_local int slot = -1;
  if (slot < 0) {
    slot = g_next_slot.fetch_add(1, std::memory_order_relaxed);
    // Threads past the table share the last slot (locked increments).
    if (slot >= kSlots) slot = kSlots - 1;
  }
  std::atomic<int64_t>& c = g_slots[slot].n;
  if (slot == kSlots - 1) {
    c.fetch_add(1, std::memory_order_relaxed);
  } else {
    c.store(c.load(std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
  }
}

void* Allocate(std::size_t size) {
  Count();
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  Count();
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace perfbench {

void SetAllocCounting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

int64_t AllocCount() {
  int64_t total = 0;
  for (const Slot& s : g_slots) total += s.n.load(std::memory_order_relaxed);
  return total;
}

}  // namespace perfbench

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
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
