#include "alloc_counter.h"

#include <cstdlib>
#include <new>

namespace maritime::bench {
std::atomic<uint64_t> g_heap_allocs{0};
}  // namespace maritime::bench

#if MARITIME_BENCH_COUNT_ALLOCS
// The replaced operators pair new->malloc with delete->free by construction;
// GCC's mismatched-new-delete heuristic cannot see that pairing.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  maritime::bench::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, std::align_val_t align) {
  maritime::bench::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::aligned_alloc(static_cast<std::size_t>(align), size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif  // MARITIME_BENCH_COUNT_ALLOCS
