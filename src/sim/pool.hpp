// Reusable work-queue thread pool behind sim::parallel_for and the
// block-parallel streaming paths (trace decode waves, the warming
// pipeline). parallel_for used to spawn a fresh set of std::threads per
// call, which is fine for one coarse fan-out but charges a thread-spawn
// per wave to loops like bbv_from_trace's 32-block decode waves and the
// warming pipeline's per-batch config fan-out. ThreadPool keeps one set
// of workers alive for the process and hands them batches instead.
//
// Batch semantics are exactly parallel_for's: indices 0..n-1 are claimed
// atomically in order, every claimed index runs `fn` exactly once, the
// first thrown exception stops further claims of that batch and is
// rethrown on the submitting thread after the batch drains
// (tests/test_sweep.cpp locks this). The submitting thread participates
// in draining its own batch, which both bounds a batch's concurrency at
// `max_workers + 1` and makes nested run() calls (a task submitting its
// own batch) deadlock-free: the innermost submitter always makes
// progress on its own indices even when every pool worker is busy.
// run() may be called concurrently from any number of threads — open
// batches share the workers FIFO — which is what lets sim::run_all's plan
// chains, their unit batches and their warm captures' per-group fan-outs
// overlap on one pool.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cfir::sim {

class ThreadPool {
 public:
  /// `threads` <= 0 resolves like parallel_for: CFIR_THREADS, else the
  /// hardware concurrency, else 1. This is the worker count; a run()
  /// caller adds itself on top, so a batch capped at `max_workers = T-1`
  /// executes on at most T threads — the old parallel_for(T) contract.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Invokes fn(0..n-1), each index exactly once, on up to
  /// `max_workers` pool workers plus the calling thread (max_workers < 0
  /// means "any"). Blocks until every claimed index finished, then
  /// rethrows the first exception a task threw. Safe to call
  /// concurrently and from inside a task.
  void run(size_t n, const std::function<void(size_t)>& fn,
           int max_workers = -1);

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  /// The process-wide memoized pool (sized from CFIR_THREADS / hardware
  /// concurrency at first use). parallel_for and the streaming decode /
  /// warming paths all share it, so total pool threads stay bounded by
  /// one machine-sized set however many fan-outs are in flight.
  static ThreadPool& shared();

 private:
  // One run() call. Lives on the submitter's stack; run() removes it
  // from queue_ only after in_flight drops to 0 and no claims remain, so
  // workers never touch a dead batch. All fields are guarded by the
  // pool-wide mu_ except fn execution itself (mu_ is released around it;
  // tasks here are coarse — block decodes, config feeds, interval sims —
  // so one pool-wide mutex for claim bookkeeping is not a bottleneck).
  struct Batch {
    size_t n = 0;
    const std::function<void(size_t)>* fn = nullptr;
    size_t next = 0;       ///< first unclaimed index
    size_t in_flight = 0;  ///< claimed but not yet finished
    bool failed = false;   ///< stop handing out further indices
    int helpers = 0;       ///< pool workers still allowed to join
    std::exception_ptr first_error;

    [[nodiscard]] bool open() const { return !failed && next < n; }
  };

  void worker_main(int lane);
  /// Claims and runs indices of `b` until it has none left to hand out.
  /// `lk` must hold mu_ on entry and holds it again on return.
  void drain(Batch& b, std::unique_lock<std::mutex>& lk);

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers: a batch may need help
  std::condition_variable done_cv_;  ///< submitters: a batch may be done
  std::vector<Batch*> queue_;        ///< open batches, FIFO
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace cfir::sim
