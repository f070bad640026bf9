#include "obs/stream.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/env.hpp"

namespace distconv::obs::stream {
namespace {

// The flusher state is a function-local static (not leaked): its destructor
// joins the thread at process exit, before the leaked trace/metrics
// registries it reads from could ever go away.
struct State {
  std::mutex mu;
  std::mutex flush_mu;  // serializes whole flushes; acquired before `mu`
  std::condition_variable cv;
  std::thread worker;
  bool running = false;
  bool configured = false;  // configure() overrides the environment
  Options opts;
  std::atomic<std::uint64_t> flush_count{0};
  // Segment files per completed flush, oldest first, for keep_segments
  // pruning. Only the flusher/stop paths touch it, under `mu`.
  std::deque<std::vector<std::string>> flushed_files;

  ~State() { stop_locked_entry(); }

  Options active() {
    std::lock_guard<std::mutex> lock(mu);
    return configured ? opts : options_from_env();
  }

  std::size_t flush(const Options& o) {
    // flush_now() (the World exit path) and the worker thread may race to
    // flush; the atomic-rename dance inside metrics::dump shares one .tmp
    // name per path, so whole flushes must be serialized.
    std::lock_guard<std::mutex> flush_lock(flush_mu);
    std::vector<std::string> files;
    std::size_t events = 0;
    if (!o.trace_dir.empty()) {
      events = trace::drain_segments(o.trace_dir, &files);
    }
    if (!o.metrics_path.empty()) metrics::dump(o.metrics_path);
    {
      std::lock_guard<std::mutex> lock(mu);
      if (!files.empty()) flushed_files.push_back(std::move(files));
      while (o.keep_segments > 0 &&
             flushed_files.size() > static_cast<std::size_t>(o.keep_segments)) {
        for (const std::string& f : flushed_files.front()) {
          std::remove(f.c_str());
        }
        flushed_files.pop_front();
      }
    }
    flush_count.fetch_add(1, std::memory_order_relaxed);
    return events;
  }

  void run(Options o) {
    std::unique_lock<std::mutex> lock(mu);
    while (running) {
      cv.wait_for(lock, std::chrono::milliseconds(o.period_ms),
                  [&] { return !running; });
      if (!running) break;
      lock.unlock();
      flush(o);
      lock.lock();
    }
  }

  void stop_locked_entry() {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (!worker.joinable()) return;
      running = false;
    }
    cv.notify_all();
    worker.join();
  }
};

State& state() {
  static State s;
  return s;
}

bool enabled_opts(const Options& o) {
  return o.period_ms > 0 && (!o.trace_dir.empty() || !o.metrics_path.empty());
}

}  // namespace

Options options_from_env() {
  Options o;
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  o.period_ms = static_cast<int>(env_int("DC_OBS_FLUSH_MS", 0, kIntMax));
  o.trace_dir = trace::configured_dir();
  o.metrics_path = metrics::configured_path();
  o.keep_segments =
      static_cast<int>(env_int("DC_OBS_KEEP_SEGMENTS", 0, kIntMax));
  return o;
}

void configure(const Options& opts) {
  State& s = state();
  s.stop_locked_entry();
  std::lock_guard<std::mutex> lock(s.mu);
  s.opts = opts;
  s.configured = true;
  s.flushed_files.clear();
}

bool enabled() { return enabled_opts(state().active()); }

void ensure_started() {
  State& s = state();
  const Options o = s.active();
  if (!enabled_opts(o)) return;
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.worker.joinable()) return;
  s.running = true;
  s.worker = std::thread([&s, o] { s.run(o); });
}

std::size_t flush_now() {
  State& s = state();
  const Options o = s.active();
  if (!enabled_opts(o)) return 0;
  return s.flush(o);
}

void stop() { state().stop_locked_entry(); }

std::uint64_t flushes() {
  return state().flush_count.load(std::memory_order_relaxed);
}

}  // namespace distconv::obs::stream
