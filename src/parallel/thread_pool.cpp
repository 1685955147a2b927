#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "util/fault.hpp"

namespace hetopt::parallel {

ThreadPool::ThreadPool(std::size_t thread_count, WorkerInit init)
    : has_worker_init_(init != nullptr) {
  const std::size_t n = std::max<std::size_t>(1, thread_count);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i, init] {
      if (init) {
        try {
          init(i);
        } catch (...) {  // hetopt-lint: allow(silent-catch) — placement is best-effort
        }
      }
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    const util::MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      const util::MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) cv_.wait(mutex_);
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // The injector must be consulted BEFORE task() runs: completing the task
    // readies its future, which unblocks the caller's join — and the caller
    // owns the (stack-scoped) injector. Reading it after task() races with
    // its destruction; reading it before is ordered by the future handshake.
    // The injected throw still fires after the task body, so no work is lost.
    const util::FaultInjector* injector = util::FaultInjector::current();
    const bool inject_throw = injector != nullptr && injector->worker_throws();
    // The worker loop is a noexcept boundary: an exception escaping here
    // would std::terminate the process. Tasks built by submit() wrap a
    // packaged_task (exceptions land in the future), but raw task functions
    // — and the fault-injection hook below — can throw, so the first
    // escapee is recorded and rethrown at the join points instead.
    try {
      task();
      if (inject_throw) {
        throw util::FaultInjectedError("injected worker-throw after task");
      }
    } catch (...) {
      record_worker_error(std::current_exception());
    }
  }
}

void ThreadPool::record_worker_error(std::exception_ptr error) noexcept {
  const util::MutexLock lock(mutex_);
  if (!worker_error_) worker_error_ = std::move(error);
}

void ThreadPool::rethrow_worker_error() {
  std::exception_ptr error;
  {
    const util::MutexLock lock(mutex_);
    error = std::exchange(worker_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& body) {
  parallel_chunks(n, thread_count(),
                  [&body](std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i) body(i);
                  });
}

void ThreadPool::parallel_pull(const std::function<void(std::size_t)>& body) {
  // One task per worker; with an idle pool every worker runs one pull loop.
  parallel_chunks(thread_count(), thread_count(),
                  [&body](std::size_t slot, std::size_t, std::size_t) { body(slot); });
}

void ThreadPool::parallel_chunks(
    std::size_t n, std::size_t chunks,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  if (n == 0 || chunks == 0) return;
  chunks = std::min(chunks, n);

  // A body's exception is caught inside its task, so the worker has let go
  // of it before the future readies and the caller holds the last reference.
  // Through the future, a worker that drops its finished task after the
  // caller is done would destroy the exception on its own thread, ordered
  // only by refcounts inside the runtime, which TSan cannot see.
  std::vector<std::exception_ptr> errors(chunks);
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = chunk_begin(n, chunks, c);
    const std::size_t end = chunk_begin(n, chunks, c + 1);
    futures.push_back(submit([&body, &errors, c, begin, end] {
      try {
        body(c, begin, end);
      } catch (...) {
        errors[c] = std::current_exception();
      }
    }));
  }
  for (auto& f : futures) f.get();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  rethrow_worker_error();
}

}  // namespace hetopt::parallel
