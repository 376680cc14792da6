#include "sim/pool.hpp"

#include <algorithm>
#include <string>

#include "obs/tracer.hpp"
#include "sim/sweep.hpp"

namespace cfir::sim {

namespace {
int resolve_threads(int threads) {
  if (threads <= 0) threads = env_threads();
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  return std::max(threads, 1);
}
}  // namespace

ThreadPool::ThreadPool(int threads) {
  const int n = resolve_threads(threads);
  workers_.reserve(static_cast<size_t>(n));
  try {
    for (int t = 0; t < n; ++t) {
      workers_.emplace_back([this, t] { worker_main(t); });
    }
  } catch (...) {
    // Thread creation failed mid-pool (resource exhaustion): join what
    // exists instead of letting the vector destructor terminate on
    // joinable threads, then surface the error.
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (auto& th : workers_) th.join();
    throw;
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& th : workers_) th.join();
}

void ThreadPool::drain(Batch& b, std::unique_lock<std::mutex>& lk) {
  while (b.open()) {
    const size_t i = b.next++;
    ++b.in_flight;
    lk.unlock();
    std::exception_ptr err;
    try {
      (*b.fn)(i);
    } catch (...) {
      err = std::current_exception();
    }
    lk.lock();
    --b.in_flight;
    if (err) {
      if (!b.first_error) b.first_error = err;
      b.failed = true;
    }
  }
  // No claims left (exhausted or failed): once in_flight hits 0 the
  // batch is complete. The last finisher passes through here, so one
  // notify point covers every completion order.
  if (b.in_flight == 0) done_cv_.notify_all();
}

void ThreadPool::worker_main(int lane) {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    Batch* b = nullptr;
    for (Batch* cand : queue_) {
      if (cand->open() && cand->helpers > 0) {
        b = cand;
        break;
      }
    }
    if (b == nullptr) {
      if (stop_) return;
      work_cv_.wait(lk);
      continue;
    }
    --b->helpers;  // the slot is held for the rest of the batch
    // Label this worker's lane in the trace viewer (re-applied per batch
    // join so a tracer started mid-process still sees named lanes). Done
    // under mu_ on purpose: releasing it here would let the submitter
    // retire the stack-allocated batch before drain() touches it.
    if (obs::Tracer::enabled()) {
      obs::Tracer::set_thread_name("worker-" + std::to_string(lane));
    }
    drain(*b, lk);
  }
}

void ThreadPool::run(size_t n, const std::function<void(size_t)>& fn,
                     int max_workers) {
  if (n == 0) return;
  Batch b;
  b.n = n;
  b.fn = &fn;
  const int cap = max_workers < 0 ? size() : std::min(max_workers, size());
  b.helpers = std::min<int>(cap, static_cast<int>(n));

  std::unique_lock<std::mutex> lk(mu_);
  queue_.push_back(&b);
  if (b.helpers > 0) work_cv_.notify_all();
  drain(b, lk);  // the submitter is always one of the batch's executors
  done_cv_.wait(lk, [&] { return b.in_flight == 0; });
  queue_.erase(std::find(queue_.begin(), queue_.end(), &b));
  const std::exception_ptr err = b.first_error;
  lk.unlock();
  if (err) std::rethrow_exception(err);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

}  // namespace cfir::sim
