/// \file alloc_hook.hpp
/// Global operator-new hook for the allocation gates (tests/alloc/):
/// counts every heap allocation in the process, on every thread, so a
/// steady-state allocs-per-call delta can be measured. Include from
/// exactly one translation unit: the definitions below are not inline.
///
/// Compiled out under AddressSanitizer: replacing operator new with a
/// malloc-based version breaks ASan's alloc/dealloc pairing. Tests check
/// kAllocHookEnabled and skip when it is false.

#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define MOLDSCHED_ALLOC_HOOK 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MOLDSCHED_ALLOC_HOOK 0
#else
#define MOLDSCHED_ALLOC_HOOK 1
#endif
#else
#define MOLDSCHED_ALLOC_HOOK 1
#endif

inline std::atomic<std::uint64_t> g_alloc_count{0};
inline constexpr bool kAllocHookEnabled = MOLDSCHED_ALLOC_HOOK != 0;

#if MOLDSCHED_ALLOC_HOOK
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// Aligned overloads: over-aligned types (SoA buffers with alignas, SIMD
// payloads) route through operator new(size, align_val_t), which the plain
// hook above never sees — without these, such allocations would be
// invisible to the alloc gates. std::aligned_alloc requires the size to be
// a multiple of the alignment, so round up; std::free releases both kinds.
void* operator new(std::size_t size, std::align_val_t al) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t al) {
  return ::operator new(size, al);
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
#endif  // MOLDSCHED_ALLOC_HOOK
