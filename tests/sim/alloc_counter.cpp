#include "alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

// GCC pairs `new` expressions it inlines with the DEFAULT operator
// delete and flags the replacement below as mismatched; the replacement
// pair is self-consistent (malloc in new, free in delete), so the
// warning is a false positive here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_bytes{0};

void note(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t size) {
  note(size);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  note(size);
  return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace lumiere::sim::alloc {

std::size_t count() { return g_allocations.load(std::memory_order_relaxed); }
std::size_t bytes() { return g_bytes.load(std::memory_order_relaxed); }

}  // namespace lumiere::sim::alloc
