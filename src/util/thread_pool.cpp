#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

namespace wsnlink::util {

ThreadPool::ThreadPool(unsigned workers) {
  const unsigned count = std::max(1u, workers);
  queues_.resize(count);
  workers_.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

ThreadPool& ThreadPool::Shared() {
  // wsnstatic:allow(lp-isolation): process-wide worker pool; it runs sweep/serve work but holds no simulation state itself
  static ThreadPool pool(std::max(2u, std::thread::hardware_concurrency()));
  return pool;
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queues_[next_queue_].tasks.push_back(std::move(task));
    next_queue_ = (next_queue_ + 1) % queues_.size();
  }
  cv_.notify_one();
}

bool ThreadPool::PopOrSteal(unsigned self, std::function<void()>& task) {
  // Own queue first, newest-first: chunks submitted together run
  // back-to-back on the same worker. Then sweep the other queues
  // oldest-first (classic steal direction).
  if (!queues_[self].tasks.empty()) {
    task = std::move(queues_[self].tasks.back());
    queues_[self].tasks.pop_back();
    return true;
  }
  for (std::size_t offset = 1; offset < queues_.size(); ++offset) {
    Queue& victim = queues_[(self + offset) % queues_.size()];
    if (!victim.tasks.empty()) {
      task = std::move(victim.tasks.front());
      victim.tasks.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::WorkerLoop(unsigned self) {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    std::function<void()> task;
    if (PopOrSteal(self, task)) {
      lock.unlock();
      task();
      lock.lock();
      continue;
    }
    if (stopping_) return;
    cv_.wait(lock);
  }
}

void ThreadPool::ParallelFor(std::size_t total, std::size_t chunk,
                             unsigned max_parallel,
                             const std::function<void(std::size_t)>& fn) {
  if (total == 0) return;
  if (chunk == 0) chunk = 1;
  const unsigned width = max_parallel == 0 ? WorkerCount() + 1 : max_parallel;
  const std::size_t chunks = (total + chunk - 1) / chunk;
  const unsigned helpers = static_cast<unsigned>(std::min<std::size_t>(
      width > 1 ? width - 1 : 0, std::min<std::size_t>(chunks, WorkerCount())));

  if (helpers == 0 || total <= chunk) {
    for (std::size_t i = 0; i < total; ++i) fn(i);
    return;
  }

  // Shared drain state: helpers and the caller grab chunk indices from the
  // cursor until exhausted. Completion is tracked per *chunk*, not per
  // helper task: the caller returns as soon as every chunk has run, even if
  // some helper tasks never got scheduled (they wake up later, find the
  // cursor exhausted, and exit without touching `fn`). That property makes
  // nested ParallelFor calls deadlock-free — a caller that drains every
  // chunk itself never waits on the pool.
  //
  // Exceptions: the first one thrown by `fn` on any thread is kept and
  // rethrown on the caller once every chunk is accounted for. After it,
  // remaining chunks are counted as done without running `fn`, so the wait
  // cannot hang and no helper touches `fn` after the caller has returned.
  struct Drain {
    std::atomic<std::size_t> cursor{0};
    std::atomic<std::size_t> done_chunks{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;  // written once, by whoever set `failed`
    std::mutex done_mutex;
    std::condition_variable done_cv;
  };
  auto drain = std::make_shared<Drain>();

  auto run_chunks = [drain, total, chunk, chunks, &fn] {
    for (std::size_t c = drain->cursor.fetch_add(1); c < chunks;
         c = drain->cursor.fetch_add(1)) {
      if (!drain->failed.load(std::memory_order_acquire)) {
        try {
          const std::size_t begin = c * chunk;
          const std::size_t end = std::min(begin + chunk, total);
          for (std::size_t i = begin; i < end; ++i) fn(i);
        } catch (...) {
          if (!drain->failed.exchange(true, std::memory_order_acq_rel)) {
            drain->error = std::current_exception();
          }
        }
      }
      if (drain->done_chunks.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          chunks) {
        // Last chunk done: wake the caller. The lock pairs the notify with
        // the caller's wait so the wakeup cannot be lost.
        std::lock_guard<std::mutex> lock(drain->done_mutex);
        drain->done_cv.notify_one();
      }
    }
  };

  for (unsigned h = 0; h < helpers; ++h) Submit(run_chunks);

  run_chunks();

  std::unique_lock<std::mutex> lock(drain->done_mutex);
  drain->done_cv.wait(lock, [&drain, chunks] {
    return drain->done_chunks.load(std::memory_order_acquire) == chunks;
  });
  // The acquire load above that saw the last chunk counted orders every
  // write to `error` before this read.
  if (drain->error) std::rethrow_exception(drain->error);
}

}  // namespace wsnlink::util
