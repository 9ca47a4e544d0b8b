// Deterministic parallel runtime: a fixed-size thread pool plus structured
// parallel loops whose results are bit-identical to serial execution
// regardless of thread count.
//
// The determinism contract every caller must uphold:
//
//   * parallel_for(n, body) — body(i) must depend only on `i` and on state
//     that is read-only for the duration of the loop, and must write only to
//     slot(s) owned by `i`. Static chunking assigns contiguous index ranges
//     to workers; the assignment never affects results because iterations
//     are independent.
//   * parallel_map(n, fn) — fn(i) is a pure function of `i`; results land in
//     a pre-sized vector at index `i`, i.e. they merge in *submission
//     order*. Downstream reductions therefore see the same operand order at
//     1, 2 or 64 threads (floating-point sums included).
//   * Randomness inside a parallel region must come from Rng streams forked
//     *serially, in submission order, before the region starts* (one
//     Rng::fork() per task). Never share one Rng across tasks.
//
// Thread count resolution (first match wins): set_num_threads(n) with n >= 1,
// the PERDNN_THREADS environment variable when it is a whole int >= 1,
// std::thread::hardware_concurrency.
// A count of 1 bypasses the pool entirely: no threads are created and the
// loop bodies run inline on the caller.
//
// Nested parallel regions run inline on the worker that encounters them
// (no pool re-entry, no deadlock), so library code may use parallel_for
// freely without caring whether its caller already fanned out.
//
// Observability: when the obs registry is collecting, the pool exports
//   par.pool_threads         (gauge)   worker count of the live pool
//   par.tasks                (counter) tasks executed by workers
//   par.queue_depth          (gauge)   queue length sampled at submit
//   par.task_latency_s       (histogram) per-task wall-clock
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace perdnn::par {

/// Number of hardware threads (>= 1).
int hardware_threads();

/// Explicit override for the process-wide pool size. n >= 1 fixes the
/// count; n == 0 reverts to automatic resolution (PERDNN_THREADS env var,
/// else hardware_concurrency). Destroys the current global pool, if any, so
/// the next parallel region rebuilds it at the new size. Must not be called
/// concurrently with running parallel regions.
void set_num_threads(int n);

/// The thread count a parallel region started now would use (>= 1).
int num_threads();

/// Parses a `--threads N` flag out of argv (both `--threads N` and
/// `--threads=N`), applies it via set_num_threads, and compacts argv in
/// place. Returns the new argc. Call first thing in main(); a value that is
/// not a whole int >= 1 exits with status 2 before it reaches the pool.
int init_threads_from_cli(int argc, char** argv);

/// Fixed-size FIFO thread pool. Most code should use parallel_for /
/// parallel_map instead of touching the pool directly.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues one task. Tasks must not block on other queued tasks.
  void submit(std::function<void()> task);

  /// True when the calling thread is one of this pool's workers.
  static bool on_worker_thread();

  /// Process-wide pool, built on first use at num_threads() size. Never
  /// constructed while the resolved count is 1.
  static ThreadPool& global();

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

namespace detail {

/// Runs body(begin, end) chunks of [0, n) across the pool and waits.
/// Exceptions thrown by any chunk are rethrown on the caller (first one in
/// chunk order wins).
void run_chunked(std::size_t n,
                 const std::function<void(std::size_t, std::size_t)>& chunk);

}  // namespace detail

/// Parallel loop over [0, n): body(i) for every i, statically chunked into
/// contiguous ranges. Runs inline when the resolved thread count is 1, when
/// n < 2, or when called from inside another parallel region.
template <typename Body>
void parallel_for(std::size_t n, Body&& body) {
  detail::run_chunked(n, [&body](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) body(i);
  });
}

/// Ordered parallel map: returns {fn(0), fn(1), ..., fn(n-1)} with every
/// result in its submission slot, so reductions over the returned vector
/// are bit-identical to a serial loop at any thread count.
template <typename Fn>
auto parallel_map(std::size_t n, Fn&& fn)
    -> std::vector<std::decay_t<decltype(fn(std::size_t{0}))>> {
  using R = std::decay_t<decltype(fn(std::size_t{0}))>;
  std::vector<R> out(n);
  detail::run_chunked(n, [&out, &fn](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) out[i] = fn(i);
  });
  return out;
}

}  // namespace perdnn::par
