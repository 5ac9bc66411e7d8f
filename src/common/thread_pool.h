#ifndef MARITIME_COMMON_THREAD_POOL_H_
#define MARITIME_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace maritime::common {

/// A fixed-size pool of worker threads shared by every parallel stage of the
/// pipeline (mobility-tracker shards, CE-recognition partitions). Creating
/// threads per window slide — as the recognizer used to do — costs more than
/// the recognition itself at small slides; the pool is created once and
/// reused for the lifetime of the process.
///
/// Scheduling is work-stealing: each worker owns a deque, tasks are pushed to
/// the deques round-robin, a worker pops its own deque FIFO and steals from
/// the back of a victim's deque when its own is empty. The single-global-queue
/// design this replaces made every Submit contend on one mutex; per-worker
/// deques shrink the critical sections to one queue each, and stealing
/// restores balance when per-task cost is uneven.
///
/// The calling thread always participates in `ParallelFor`, so a pool with
/// zero workers is a valid (fully serial) configuration and the pool can
/// never deadlock waiting for itself.
class ThreadPool {
 public:
  /// Spawns `workers` background threads (>= 0). Total parallelism of a
  /// `ParallelFor` is `workers + 1` because the caller joins in.
  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int worker_count() const { return static_cast<int>(workers_.size()); }

  /// Cumulative count of cross-queue steals; observability only.
  uint64_t steal_count() const {
    return steals_.load(std::memory_order_relaxed);
  }

  /// Runs `body(i)` for every i in [0, n) across the workers plus the
  /// calling thread; returns once all n indices have completed. Indices are
  /// claimed dynamically, so uneven per-index cost balances itself.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body);

  /// Enqueues one fire-and-forget task. Used for work whose completion is
  /// observed through some other channel; `ParallelFor` is the right API for
  /// join-style fan-out. After `Stop()` the task runs inline on the calling
  /// thread instead of being enqueued (no task is ever silently dropped).
  void Submit(std::function<void()> task);

  /// Drains the queues and joins the workers. Idempotent and safe to call
  /// from several threads concurrently (the destructor calls it too); every
  /// task submitted before the stop flag is observed still runs. After
  /// Stop(), `ParallelFor` degrades to serial execution on the caller.
  void Stop() MARITIME_EXCLUDES(join_mu_);

  /// The process-wide shared pool. Sized to the hardware concurrency minus
  /// one (caller participation restores full width); the MARITIME_THREADS
  /// environment variable overrides the total width, which benches use to
  /// sweep a threads axis.
  static ThreadPool& Shared();

 private:
  /// One worker's queue. Own pops are FIFO (front), steals take the back,
  /// so a thief grabs the task its owner would reach last.
  struct WorkerQueue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks MARITIME_GUARDED_BY(mu);
  };

  void WorkerLoop(size_t self);
  /// Pops from the own queue, then scans the others for a steal. Returns an
  /// empty function when every queue is empty.
  std::function<void()> TryPop(size_t self);

  /// Queue i belongs to worker i; unique_ptr keeps the mutexes pinned while
  /// the vector is built.
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  /// Only started in the constructor; joined exactly once under join_mu_.
  std::vector<std::thread> workers_;
  std::atomic<bool> stop_{false};
  /// Tasks queued but not yet claimed, across all queues. Incremented before
  /// the push and decremented at the pop, so a waking worker that loses the
  /// race to a thief just re-checks and sleeps again.
  std::atomic<size_t> pending_{0};
  std::atomic<uint64_t> steals_{0};
  /// Round-robin push cursor over the worker queues.
  std::atomic<uint64_t> cursor_{0};
  // wake_mu_ guards no data — queue state lives behind each WorkerQueue::mu
  // and the flags are atomic; the mutex only sequences the sleep/notify
  // handshake so a wakeup cannot be missed between check and wait.
  // maritime-lint: allow-next-line(lock-discipline): cv companion only
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  /// Serializes the join phase of concurrent Stop()/destructor calls.
  std::mutex join_mu_;
  bool joined_ MARITIME_GUARDED_BY(join_mu_) = false;
};

}  // namespace maritime::common

#endif  // MARITIME_COMMON_THREAD_POOL_H_
