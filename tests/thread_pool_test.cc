#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

namespace maritime::common {
namespace {

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForWorksWithZeroWorkers) {
  // The caller participates, so a worker-less pool is a valid serial pool.
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0);
  std::atomic<int> sum{0};
  pool.ParallelFor(100, [&](size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPoolTest, ParallelForHandlesEdgeSizes) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.ParallelFor(0, [&](size_t) { ++count; });
  EXPECT_EQ(count.load(), 0);
  pool.ParallelFor(1, [&](size_t) { ++count; });
  EXPECT_EQ(count.load(), 1);
  // Far more indices than lanes: dynamic claiming must still cover all.
  pool.ParallelFor(10000, [&](size_t) { ++count; });
  EXPECT_EQ(count.load(), 10001);
}

TEST(ThreadPoolTest, ParallelForIsReusableAcrossCalls) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> sum{0};
    pool.ParallelFor(64, [&](size_t i) { sum += static_cast<int>(i); });
    EXPECT_EQ(sum.load(), 2016) << "round " << round;
  }
}

TEST(ThreadPoolTest, SubmitRunsDetachedTasks) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) pool.Submit([&] { ++done; });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (done.load() < 8 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(done.load(), 8);
}

TEST(ThreadPoolTest, SharedPoolIsASingleton) {
  ThreadPool& a = ThreadPool::Shared();
  ThreadPool& b = ThreadPool::Shared();
  EXPECT_EQ(&a, &b);
  std::atomic<int> sum{0};
  a.ParallelFor(16, [&](size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 120);
}

TEST(ThreadPoolShutdownTest, StopIsIdempotent) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 16; ++i) pool.Submit([&] { ++done; });
  pool.Stop();
  pool.Stop();  // double-Stop must be a no-op, not a double-join
  EXPECT_EQ(done.load(), 16);  // Stop drains the queue before returning
}

TEST(ThreadPoolShutdownTest, TasksQueuedAtDestructionStillRun) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(1);
    // One long task blocks the single worker while more tasks pile up; the
    // destructor must run the leftovers, not drop them.
    pool.Submit([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ++done;
    });
    for (int i = 0; i < 32; ++i) pool.Submit([&] { ++done; });
  }
  EXPECT_EQ(done.load(), 33);
}

TEST(ThreadPoolShutdownTest, SubmitAfterStopRunsInline) {
  ThreadPool pool(2);
  pool.Stop();
  std::atomic<int> done{0};
  pool.Submit([&] { ++done; });
  EXPECT_EQ(done.load(), 1);  // executed synchronously, not dropped
}

TEST(ThreadPoolShutdownTest, ParallelForAfterStopDegradesToSerial) {
  ThreadPool pool(3);
  pool.Stop();
  std::atomic<int> sum{0};
  pool.ParallelFor(100, [&](size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPoolShutdownTest, ConcurrentSubmitAndStopHammer) {
  // The TSan-facing test: many submitters race a concurrent Stop(); every
  // submitted task must run exactly once (enqueued-and-drained or inline)
  // and nothing may crash or race. Repeated so schedules vary.
  for (int round = 0; round < 20; ++round) {
    auto pool = std::make_unique<ThreadPool>(3);
    std::atomic<int> executed{0};
    constexpr int kSubmitters = 4;
    constexpr int kPerThread = 50;
    std::vector<std::thread> submitters;
    submitters.reserve(kSubmitters + 2);
    for (int t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&] {
        for (int i = 0; i < kPerThread; ++i) {
          pool->Submit([&] { ++executed; });
        }
      });
    }
    // Two racing stoppers: exercises the join-once path under contention.
    submitters.emplace_back([&] { pool->Stop(); });
    submitters.emplace_back([&] { pool->Stop(); });
    for (auto& t : submitters) t.join();
    pool->Stop();  // all submitters done; drains anything still queued
    EXPECT_EQ(executed.load(), kSubmitters * kPerThread) << "round " << round;
    pool.reset();  // destruction after explicit Stop must also be clean
  }
}

TEST(ThreadPoolTest, UnevenWorkBalances) {
  // Dynamic index claiming: one slow index must not serialize the rest.
  ThreadPool pool(3);
  std::atomic<int> count{0};
  pool.ParallelFor(32, [&](size_t i) {
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ++count;
  });
  EXPECT_EQ(count.load(), 32);
}

TEST(ThreadPoolTest, IdleWorkersSteal) {
  // Two workers, tasks pushed round-robin: the first and third task share a
  // deque. The first blocks until `release` is set, which only the third
  // does. Without stealing the third would sit behind the blocked first one
  // forever; the other worker stealing one of them is the only way this
  // test finishes.
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  std::atomic<int> done{0};
  pool.Submit([&] {
    while (!release.load()) std::this_thread::yield();
    ++done;
  });
  pool.Submit([&] { ++done; });
  pool.Submit([&] {
    release.store(true);
    ++done;
  });
  while (done.load() < 3) std::this_thread::yield();
  EXPECT_EQ(done.load(), 3);
  EXPECT_GE(pool.steal_count(), 1u);
}

TEST(ThreadPoolShutdownTest, StopDrainsEveryQueue) {
  // Tasks parked in per-worker deques at Stop() time must all still run,
  // whichever deque they were pushed to.
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    std::atomic<bool> hold{true};
    // Park both workers so subsequent pushes stay queued.
    for (int i = 0; i < 2; ++i) {
      pool.Submit([&] {
        while (hold.load()) std::this_thread::yield();
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    for (int i = 0; i < 8; ++i) pool.Submit([&] { ++ran; });
    hold.store(false);
    pool.Stop();
  }
  EXPECT_EQ(ran.load(), 8);
}

}  // namespace
}  // namespace maritime::common
