// Opt-in global allocation counting, for tests and benches that must prove
// a hot path is allocation-free.
//
// The library never replaces the global allocator. A binary that wants
// counting places AVGLOCAL_DEFINE_ALLOC_HOOK() at namespace scope in
// exactly one translation unit; that defines replacement global
// operator new/delete which tick the counters below. Everything else reads
// alloc_counts() - which simply stays at zero when no hook is installed.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace avglocal::support {

struct AllocCounts {
  std::uint64_t allocations = 0;
  std::uint64_t bytes = 0;
};

namespace alloc_hook_detail {
// Concurrency contract: every counter tick is a relaxed atomic RMW, so
// concurrent allocation from any number of pool workers loses no updates
// and is ThreadSanitizer-clean (pinned by AllocHook.ConcurrentCountsAreExact
// and the tsan CI job). Relaxed ordering is enough - the gates only ever
// read the counters after joining the threads whose allocations they
// count, and that join supplies the happens-before edge.
//
// Both counters live on one dedicated cache line: they are always written
// together (one allocation ticks both), and the alignment keeps the hot
// RMW traffic from false-sharing with unrelated globals.
struct alignas(64) Counters {
  std::atomic<std::uint64_t> allocations{0};
  std::atomic<std::uint64_t> bytes{0};
};
inline Counters g_counters;

inline void note(std::size_t bytes) noexcept {
  g_counters.allocations.fetch_add(1, std::memory_order_relaxed);
  g_counters.bytes.fetch_add(bytes, std::memory_order_relaxed);
}
}  // namespace alloc_hook_detail

/// Totals since process start (zero when no hook is installed). Safe to
/// call from any thread; exact once the counted threads have been joined.
inline AllocCounts alloc_counts() noexcept {
  return {alloc_hook_detail::g_counters.allocations.load(std::memory_order_relaxed),
          alloc_hook_detail::g_counters.bytes.load(std::memory_order_relaxed)};
}

}  // namespace avglocal::support

// NOLINTBEGIN - replacement allocation functions must live at global scope.
// Covers the plain, array, aligned, and nothrow families so nothing the
// engine could allocate escapes the counters.
#define AVGLOCAL_DEFINE_ALLOC_HOOK()                                                          \
  void* operator new(std::size_t size) {                                                      \
    ::avglocal::support::alloc_hook_detail::note(size);                                       \
    if (void* p = std::malloc(size != 0 ? size : 1)) return p;                                \
    throw std::bad_alloc{};                                                                   \
  }                                                                                           \
  void* operator new[](std::size_t size) {                                                    \
    ::avglocal::support::alloc_hook_detail::note(size);                                       \
    if (void* p = std::malloc(size != 0 ? size : 1)) return p;                                \
    throw std::bad_alloc{};                                                                   \
  }                                                                                           \
  void* operator new(std::size_t size, std::align_val_t align) {                              \
    ::avglocal::support::alloc_hook_detail::note(size);                                       \
    /* C11 aligned_alloc requires size to be a multiple of the alignment. */                  \
    const std::size_t a = static_cast<std::size_t>(align);                                    \
    if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;                    \
    throw std::bad_alloc{};                                                                   \
  }                                                                                           \
  void* operator new[](std::size_t size, std::align_val_t align) {                            \
    return ::operator new(size, align);                                                       \
  }                                                                                           \
  void* operator new(std::size_t size, const std::nothrow_t&) noexcept {                      \
    ::avglocal::support::alloc_hook_detail::note(size);                                       \
    return std::malloc(size != 0 ? size : 1);                                                 \
  }                                                                                           \
  void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {                    \
    ::avglocal::support::alloc_hook_detail::note(size);                                       \
    return std::malloc(size != 0 ? size : 1);                                                 \
  }                                                                                           \
  /* The hook's new hands out malloc memory, so free is the matching     */                   \
  /* release; GCC loses that pairing when it inlines both into a caller. */                   \
  _Pragma("GCC diagnostic push")                                                              \
  _Pragma("GCC diagnostic ignored \"-Wmismatched-new-delete\"")                               \
  void operator delete(void* ptr) noexcept { std::free(ptr); }                                \
  void operator delete[](void* ptr) noexcept { std::free(ptr); }                              \
  void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }                   \
  void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }                 \
  void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }              \
  void operator delete[](void* ptr, std::align_val_t) noexcept { std::free(ptr); }            \
  void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept { std::free(ptr); } \
  void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {                 \
    std::free(ptr);                                                                           \
  }                                                                                           \
  void operator delete(void* ptr, const std::nothrow_t&) noexcept { std::free(ptr); }         \
  void operator delete[](void* ptr, const std::nothrow_t&) noexcept { std::free(ptr); }       \
  _Pragma("GCC diagnostic pop")                                                               \
  static_assert(true, "require a trailing semicolon")
// NOLINTEND
