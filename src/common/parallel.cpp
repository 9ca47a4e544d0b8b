#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "common/arg_parse.hpp"
#include "common/check.hpp"
#include "obs/metrics.hpp"

namespace perdnn::par {

namespace {

/// Marks pool worker threads so nested parallel regions run inline.
thread_local bool t_on_worker = false;

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;   // guarded by g_pool_mu
int g_override_threads = 0;           // guarded by g_pool_mu; 0 = auto

int env_threads() {
  const char* env = std::getenv("PERDNN_THREADS");
  int n = 0;
  if (env == nullptr || !parse_int(env, &n) || n < 1) return 0;  // garbage
  return n;
}

int resolve_threads_locked() {
  if (g_override_threads >= 1) return g_override_threads;
  const int env = env_threads();
  if (env >= 1) return env;
  return hardware_threads();
}

}  // namespace

int hardware_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc >= 1 ? static_cast<int>(hc) : 1;
}

void set_num_threads(int n) {
  PERDNN_CHECK_MSG(n >= 0, "set_num_threads: count must be >= 0");
  std::lock_guard<std::mutex> lock(g_pool_mu);
  g_override_threads = n;
  g_pool.reset();  // next region rebuilds at the new size
}

int num_threads() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  return resolve_threads_locked();
}

int init_threads_from_cli(int argc, char** argv) {
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if (std::strcmp(arg, "--threads") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--threads requires a value\n");
        std::exit(2);
      }
      value = argv[++i];
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      value = arg + 10;
    } else {
      argv[out++] = argv[i];
      continue;
    }
    int n = 0;
    if (!parse_int(value, &n) || n < 1) {
      std::fprintf(stderr, "--threads expects an integer >= 1, got '%s'\n",
                   value);
      std::exit(2);
    }
    set_num_threads(n);
  }
  argv[out] = nullptr;
  return out;
}

ThreadPool::ThreadPool(int num_threads) {
  PERDNN_CHECK_MSG(num_threads >= 1, "thread pool needs >= 1 worker");
  workers_.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    depth = queue_.size();
  }
  obs::set_gauge("par.queue_depth", static_cast<double>(depth));
  cv_.notify_one();
}

bool ThreadPool::on_worker_thread() { return t_on_worker; }

void ThreadPool::worker_loop() {
  t_on_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    if (obs::enabled()) {
      const auto start = std::chrono::steady_clock::now();
      task();
      const std::chrono::duration<double> dt =
          std::chrono::steady_clock::now() - start;
      obs::count("par.tasks");
      obs::observe("par.task_latency_s", dt.count());
    } else {
      task();
    }
  }
}

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_pool == nullptr) {
    const int n = resolve_threads_locked();
    PERDNN_CHECK_MSG(n >= 2, "global pool built with a serial thread count");
    g_pool = std::make_unique<ThreadPool>(n);
    obs::set_gauge("par.pool_threads", static_cast<double>(n));
  }
  return *g_pool;
}

namespace detail {

void run_chunked(std::size_t n,
                 const std::function<void(std::size_t, std::size_t)>& chunk) {
  if (n == 0) return;
  const int threads = num_threads();
  // Serial bypass: configured serial, trivial range, or already inside a
  // parallel region (nested regions run inline on the enclosing worker).
  if (threads <= 1 || n < 2 || ThreadPool::on_worker_thread()) {
    chunk(0, n);
    return;
  }

  ThreadPool& pool = ThreadPool::global();
  const std::size_t num_chunks =
      std::min(static_cast<std::size_t>(pool.size()), n);

  std::mutex done_mu;
  std::condition_variable done_cv;
  std::size_t remaining = num_chunks;
  std::exception_ptr first_error;  // in chunk order: lowest chunk wins
  std::size_t first_error_chunk = n + 1;

  for (std::size_t c = 0; c < num_chunks; ++c) {
    // Static chunking: contiguous, near-equal ranges fixed by (n, pool
    // size) alone — the work assignment is reproducible run to run.
    const std::size_t begin = n * c / num_chunks;
    const std::size_t end = n * (c + 1) / num_chunks;
    pool.submit([&, c, begin, end] {
      std::exception_ptr error;
      try {
        chunk(begin, end);
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(done_mu);
      if (error != nullptr && c < first_error_chunk) {
        first_error = error;
        first_error_chunk = c;
      }
      if (--remaining == 0) done_cv.notify_all();
    });
  }

  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return remaining == 0; });
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

}  // namespace detail

}  // namespace perdnn::par
