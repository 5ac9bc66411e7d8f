#ifndef MARITIME_BENCH_ALLOC_COUNTER_H_
#define MARITIME_BENCH_ALLOC_COUNTER_H_

// Heap-allocation counting for the microbenchmarks: hot paths are judged not
// only on time but on allocator traffic, so alloc_counter.cc replaces global
// operator new/delete with counting wrappers in every microbenchmark binary.
// Sanitizer builds provide their own operator new; the counter then stays
// at zero (see kAllocCountingActive) and tools/check_alloc_budget.py skips.

#include <atomic>
#include <cstdint>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MARITIME_BENCH_COUNT_ALLOCS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define MARITIME_BENCH_COUNT_ALLOCS 0
#else
#define MARITIME_BENCH_COUNT_ALLOCS 1
#endif
#else
#define MARITIME_BENCH_COUNT_ALLOCS 1
#endif

namespace maritime::bench {

/// operator-new calls so far, over all threads.
extern std::atomic<uint64_t> g_heap_allocs;
inline constexpr bool kAllocCountingActive = MARITIME_BENCH_COUNT_ALLOCS != 0;

inline uint64_t HeapAllocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

}  // namespace maritime::bench

#endif  // MARITIME_BENCH_ALLOC_COUNTER_H_
