// Small fixed-size thread pool with a parallel_for helper.
//
// The study runs on whatever cores are available; on a single-core host the
// pool degrades to inline execution with no thread overhead.
//
// parallel_for is exception-safe (a throwing body is rethrown on the
// calling thread after the range is drained) and safe to nest: the caller
// participates in its own work instead of blocking on pool capacity, so
// parallel_for inside a pool task cannot deadlock.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace con::util {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Ceiling on the pool size: guards against a nonsense size exhausting
  // the process at thread creation.
  static constexpr std::size_t kMaxThreads = 256;

  // Enqueue a task; fire-and-forget (use parallel_for for joined work).
  // Tasks must not throw out of the pool: a task that does is caught by the
  // worker, the in-flight count still drops, and the exception is dropped —
  // parallel_for layers its own exception capture on top of this.
  void submit(std::function<void()> task);

  // Block until all submitted tasks have completed.
  void wait_idle();

  // Process-wide pool. Created on first use; sized to the hardware unless
  // set_global_threads() was called first.
  static ThreadPool& global();

  // Set the size of the global pool. `n == 0` means hardware concurrency.
  // Must be called before the first global() use (e.g. from CLI parsing);
  // calls after the pool exists throw std::logic_error unless the size
  // already matches.
  static void set_global_threads(std::size_t n);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable task_cv_;
  std::condition_variable idle_cv_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

// Split [begin, end) into chunks and run `fn(i)` for every i, using the
// global pool plus the calling thread. Runs inline when the range is small
// or the pool has one thread — the common case on the single-core
// reproduction host.
//
// Determinism: `fn` may run on any thread in any order, so it must write
// only to state owned by index i (e.g. a preallocated result slot).
// If any invocation throws, the remaining range is cancelled, every
// in-flight invocation finishes, and the first exception (by claim order)
// is rethrown on the calling thread. The pool survives.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain = 1);

}  // namespace con::util
