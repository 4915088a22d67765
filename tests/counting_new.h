// Counts every global operator new call in the test binary that
// includes this header. Replacing operator new is program-wide, so
// include it from exactly one translation unit of one test binary.
//
//   const std::uint64_t before = anufs::testing::allocations();
//   ... code under test ...
//   EXPECT_EQ(anufs::testing::allocations(), before);
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace anufs::testing {

inline std::atomic<std::uint64_t> g_allocations{0};

inline std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

inline void* counted_alloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace anufs::testing

// The replacements pair malloc with free; GCC cannot see that across the
// replaced operators and warns about a new/free mismatch.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  if (void* p = anufs::testing::counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = anufs::testing::counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return anufs::testing::counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return anufs::testing::counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
