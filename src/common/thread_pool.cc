#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <utility>

#include "common/check.h"

namespace maritime::common {
namespace {

/// Shared state of one ParallelFor call. Kept alive by shared_ptr until the
/// last helper task has run, which may be after the call itself returned
/// (a queued helper that finds no index left exits without touching `body`).
struct ForState {
  explicit ForState(size_t n_in) : n(n_in) {}
  const size_t n;
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  // mu guards no data — all shared state is atomic; the mutex only sequences
  // the cv wait/notify handshake so the completion signal cannot be missed
  // between check and wait.
  // maritime-lint: allow-next-line(lock-discipline): cv companion only
  std::mutex mu;
  std::condition_variable cv;
};

void DrainIndices(ForState& state, const std::function<void(size_t)>& body) {
  while (true) {
    const size_t i = state.next.fetch_add(1);
    if (i >= state.n) break;
    body(i);
    if (state.done.fetch_add(1) + 1 == state.n) {
      std::lock_guard<std::mutex> lock(state.mu);
      state.cv.notify_all();
    }
  }
}

int SharedPoolWorkers() {
  int width = 0;
  if (const char* env = std::getenv("MARITIME_THREADS")) {
    width = std::atoi(env);
  }
  if (width <= 0) {
    width = static_cast<int>(std::thread::hardware_concurrency());
  }
  if (width <= 0) width = 2;
  return width - 1;  // The ParallelFor caller supplies the last thread.
}

}  // namespace

ThreadPool::ThreadPool(int workers) {
  const size_t count = static_cast<size_t>(workers > 0 ? workers : 0);
  queues_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() { Stop(); }

void ThreadPool::Stop() {
  stop_.store(true, std::memory_order_release);
  {
    // Empty critical section: a worker between its predicate check and its
    // wait must observe the flag once we hold the lock it checks under.
    std::lock_guard<std::mutex> lock(wake_mu_);
  }
  wake_cv_.notify_all();
  // Exactly one caller joins; the others wait here until it has finished, so
  // every Stop() returns only once the workers are really gone.
  std::lock_guard<std::mutex> join_lock(join_mu_);
  if (joined_) return;
  for (auto& w : workers_) w.join();
  joined_ = true;
  // Anything still queued was submitted concurrently with the stop flag and
  // never claimed by a worker; run it here so no task is silently dropped.
  // Submit checks stop_ under the target queue's mutex, so a task that made
  // it into a queue was pushed before the drain below locked that queue.
  std::deque<std::function<void()>> leftovers;
  for (auto& q : queues_) {
    std::lock_guard<std::mutex> lock(q->mu);
    for (auto& task : q->tasks) leftovers.push_back(std::move(task));
    q->tasks.clear();
  }
  pending_.store(0, std::memory_order_release);
  for (auto& task : leftovers) task();
}

std::function<void()> ThreadPool::TryPop(size_t self) {
  const size_t w = queues_.size();
  {
    WorkerQueue& own = *queues_[self];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.tasks.empty()) {
      auto task = std::move(own.tasks.front());
      own.tasks.pop_front();
      pending_.fetch_sub(1, std::memory_order_release);
      return task;
    }
  }
  for (size_t k = 1; k < w; ++k) {
    WorkerQueue& victim = *queues_[(self + k) % w];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (!victim.tasks.empty()) {
      auto task = std::move(victim.tasks.back());
      victim.tasks.pop_back();
      pending_.fetch_sub(1, std::memory_order_release);
      steals_.fetch_add(1, std::memory_order_relaxed);
      return task;
    }
  }
  return {};
}

void ThreadPool::WorkerLoop(size_t self) {
  while (true) {
    if (std::function<void()> task = TryPop(self)) {
      task();
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mu_);
    wake_cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
    // pending_ may be stale by the time the queues are scanned (a thief got
    // there first); the loop simply comes back here and sleeps again.
    if (stop_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  MARITIME_DCHECK(task != nullptr);
  if (!queues_.empty()) {
    const uint64_t tick = cursor_.fetch_add(1, std::memory_order_relaxed);
    WorkerQueue& target = *queues_[static_cast<size_t>(tick % queues_.size())];
    bool queued = false;
    {
      std::lock_guard<std::mutex> lock(target.mu);
      if (!stop_.load(std::memory_order_acquire)) {
        // Count before push: a worker must never observe a task it cannot
        // account for, or pending_ would wrap below zero at the pop.
        pending_.fetch_add(1, std::memory_order_release);
        target.tasks.push_back(std::move(task));
        queued = true;
      }
    }
    if (queued) {
      {
        // Empty critical section pairing with the worker's predicate check.
        std::lock_guard<std::mutex> lock(wake_mu_);
      }
      wake_cv_.notify_one();
      return;
    }
  }
  // Stopped or zero-worker pool: execute inline so fire-and-forget work
  // still happens and a racing ParallelFor still terminates (its helpers
  // drain serially).
  task();
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& body) {
  if (n == 0) return;
  if (n == 1 || workers_.empty()) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  auto state = std::make_shared<ForState>(n);
  const size_t helpers = std::min(n - 1, workers_.size());
  for (size_t h = 0; h < helpers; ++h) {
    // `body` is captured by reference: every index is claimed before the
    // call returns, so any task outliving the call exits immediately from
    // DrainIndices without dereferencing it.
    Submit([state, &body] { DrainIndices(*state, body); });
  }
  DrainIndices(*state, body);
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] { return state->done.load() == n; });
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool(SharedPoolWorkers());
  return pool;
}

}  // namespace maritime::common
