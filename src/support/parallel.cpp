#include "support/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <climits>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "support/env.hpp"
#include "support/intmath.hpp"

namespace distconv::parallel {
namespace {

std::atomic<int> g_override{0};
std::atomic<int> g_rank_threads{1};

int env_threads() {
  static const int cached = num_threads_from_env();
  return cached;
}

int hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// One parallel_for invocation. Chunks are claimed by index from an atomic
/// counter; the job is complete when every claimed chunk has run. Shared
/// ownership (queue + workers + caller) keeps the struct alive until the
/// last toucher drops it.
struct Job {
  std::int64_t begin = 0;
  std::int64_t chunk = 1;
  std::int64_t end = 0;
  std::int64_t num_chunks = 0;
  const ChunkFn* fn = nullptr;

  std::atomic<std::int64_t> next{0};
  std::atomic<std::int64_t> done{0};
  std::mutex m;
  std::condition_variable cv;
  bool complete = false;
  std::exception_ptr error;

  /// Claim and run one chunk; false when no chunks remain to claim.
  bool run_one() {
    const std::int64_t idx = next.fetch_add(1, std::memory_order_relaxed);
    if (idx >= num_chunks) return false;
    const std::int64_t b = begin + idx * chunk;
    const std::int64_t e = std::min(end, b + chunk);
    try {
      (*fn)(b, e);
    } catch (...) {
      std::lock_guard<std::mutex> lock(m);
      if (!error) error = std::current_exception();
    }
    if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == num_chunks) {
      {
        std::lock_guard<std::mutex> lock(m);
        complete = true;
      }
      cv.notify_all();
    }
    return true;
  }

  void wait() {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [this] { return complete; });
    if (error) std::rethrow_exception(error);
  }
};

/// Shared worker pool. Grows on demand (never shrinks) up to the largest
/// budget ever requested minus the participating caller; workers service a
/// FIFO of in-flight jobs, so concurrent rank threads and nested
/// parallel_for calls share the same workers without deadlock (every caller
/// drains its own job before blocking).
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  void ensure_workers(int n) {
    n = std::min(n, 4 * hardware_threads() + 64);  // oversubscription backstop
    std::lock_guard<std::mutex> lock(m_);
    while (static_cast<int>(workers_.size()) < n) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  void run(const std::shared_ptr<Job>& job) {
    {
      std::lock_guard<std::mutex> lock(m_);
      queue_.push_back(job);
    }
    cv_.notify_all();
    while (job->run_one()) {
    }
    // All chunks are claimed; stop advertising the job.
    {
      std::lock_guard<std::mutex> lock(m_);
      auto it = std::find(queue_.begin(), queue_.end(), job);
      if (it != queue_.end()) queue_.erase(it);
    }
    job->wait();
  }

 private:
  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(m_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : workers_) t.join();
  }

  void worker_loop() {
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(m_);
        cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
        if (stop_) return;
        job = queue_.front();
      }
      if (!job->run_one()) {
        // Exhausted: retire it from the queue if still advertised.
        std::lock_guard<std::mutex> lock(m_);
        auto it = std::find(queue_.begin(), queue_.end(), job);
        if (it != queue_.end()) queue_.erase(it);
      }
    }
  }

  std::mutex m_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Job>> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

}  // namespace

int num_threads_from_env() {
  return static_cast<int>(env_int("DC_NUM_THREADS", 0, INT_MAX));
}

int num_threads() {
  int n = 0;
  const int override_n = g_override.load(std::memory_order_relaxed);
  if (override_n > 0) {
    n = override_n;
  } else if (const int env_n = env_threads(); env_n > 0) {
    n = env_n;
  } else {
    const int ranks =
        std::max(1, g_rank_threads.load(std::memory_order_relaxed));
    n = std::max(1, hardware_threads() / ranks);
  }
  return std::max(1, n);
}

void set_num_threads(int n) {
  g_override.store(n > 0 ? n : 0, std::memory_order_relaxed);
}

void set_rank_threads(int n) {
  g_rank_threads.store(n > 0 ? n : 1, std::memory_order_relaxed);
}

void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const ChunkFn& fn) {
  const std::int64_t n = end - begin;
  if (n <= 0) return;
  grain = std::max<std::int64_t>(1, grain);
  const int budget = num_threads();
  const std::int64_t chunk = std::max(grain, ceil_div(n, budget));
  const std::int64_t num_chunks = ceil_div(n, chunk);
  if (budget <= 1 || num_chunks <= 1) {
    fn(begin, end);
    return;
  }
  auto job = std::make_shared<Job>();
  job->begin = begin;
  job->end = end;
  job->chunk = chunk;
  job->num_chunks = num_chunks;
  job->fn = &fn;
  Pool& pool = Pool::instance();
  // Size the pool for aggregate demand: every concurrent rank thread may
  // run a (budget-1)-worker job of its own, and workers drain the job FIFO,
  // so sizing for one call would leave the machine undersubscribed whenever
  // several ranks compute at once.
  const int ranks = std::max(1, g_rank_threads.load(std::memory_order_relaxed));
  pool.ensure_workers((budget - 1) * ranks);
  pool.run(job);
}

void parallel_for_2d(std::int64_t n0, std::int64_t n1, std::int64_t grain,
                     const Elem2dFn& fn) {
  if (n0 <= 0 || n1 <= 0) return;
  parallel_for(0, n0 * n1, grain, [&](std::int64_t t0, std::int64_t t1) {
    for (std::int64_t t = t0; t < t1; ++t) fn(t / n1, t % n1);
  });
}

}  // namespace distconv::parallel
