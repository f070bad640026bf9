#include "serve/batcher.hpp"

#include <algorithm>
#include <atomic>
#include <climits>

#include "obs/attribution.hpp"
#include "support/env.hpp"
#include "support/error.hpp"

namespace distconv::serve {

namespace {

// Fleet-global request id sequence: unique across every batcher in the
// process so per-request trace instants are unambiguous fleet-wide.
std::atomic<std::uint64_t> g_next_request_id{1};

void emit_req_instant(const char* name, std::uint64_t id) {
  const obs::trace::Arg args[] = {{"req", static_cast<double>(id)}};
  obs::trace::emit_instant(name, "serve", args, 1);
}

}  // namespace

BatcherOptions batcher_options_from_env() {
  BatcherOptions opts;
  opts.max_batch = static_cast<int>(
      std::max<std::int64_t>(1, env_int("DC_SERVE_MAX_BATCH", opts.max_batch, INT_MAX)));
  opts.max_delay_us = env_int("DC_SERVE_MAX_DELAY_US", opts.max_delay_us);
  opts.max_queue = env_int("DC_SERVE_MAX_QUEUE", opts.max_queue);
  opts.deadline_us = env_int("DC_SERVE_DEADLINE_US", opts.deadline_us);
  return opts;
}

ServeOptions serve_options_from_env() {
  ServeOptions opts;
  opts.batcher = batcher_options_from_env();
  opts.continuous = env_bool("DC_SERVE_CONTINUOUS", opts.continuous);
  opts.double_buffer = env_bool("DC_SERVE_DOUBLE_BUFFER", opts.double_buffer);
  opts.replicas = static_cast<int>(
      std::max<std::int64_t>(1, env_int("DC_SERVE_REPLICAS", opts.replicas, INT_MAX)));
  opts.slo_p99_us = env_int("DC_SERVE_SLO_P99_US", opts.slo_p99_us);
  return opts;
}

std::future<InferenceResult> Batcher::push(Tensor<float> input, int passes,
                                           std::uint64_t* id_out) {
  DC_REQUIRE(input.shape().n == 1, "serve requests carry one sample, got ",
             input.shape().str());
  DC_REQUIRE(passes >= 1, "request cost must be >= 1 pass, got ", passes);
  // Minted before the admission check so shed requests have an id too.
  const std::uint64_t id =
      g_next_request_id.fetch_add(1, std::memory_order_relaxed);
  if (id_out != nullptr) *id_out = id;
  std::lock_guard<std::mutex> lock(mu_);
  DC_REQUIRE(!closed_, "Batcher::push after close()");
  if (opts_.max_queue > 0 &&
      static_cast<std::int64_t>(queue_.size()) >= opts_.max_queue) {
    ++shed_;
    if (obs::timing_enabled()) {
      obs_.shed.inc();
      emit_req_instant("serve.req.shed", id);
    }
    throw OverloadedError(internal::compose(
        "serve queue full (", queue_.size(), " of DC_SERVE_MAX_QUEUE=",
        opts_.max_queue, " requests queued); request ", id, " rejected"));
  }
  Request req;
  req.id = id;
  req.input = std::move(input);
  req.passes = passes;
  req.enqueued = std::chrono::steady_clock::now();
  std::future<InferenceResult> fut = req.done.get_future();
  queue_.push_back(std::move(req));
  if (obs::timing_enabled()) {
    obs_.queue_depth.set(static_cast<std::int64_t>(queue_.size()));
    emit_req_instant("serve.req.queued", id);
  }
  cv_.notify_all();
  return fut;
}

void Batcher::expire_stale_locked(std::chrono::steady_clock::time_point now) {
  if (opts_.deadline_us <= 0) return;
  const auto limit = std::chrono::microseconds(opts_.deadline_us);
  while (!queue_.empty() && now - queue_.front().enqueued > limit) {
    Request req = std::move(queue_.front());
    queue_.pop_front();
    ++expired_;
    if (obs::timing_enabled()) {
      obs_.expired.inc();
      emit_req_instant("serve.req.expired", req.id);
    }
    req.done.set_exception(std::make_exception_ptr(DeadlineExceededError(
        internal::compose("request ", req.id, " queued longer than "
                          "DC_SERVE_DEADLINE_US=", opts_.deadline_us,
                          " us; dropped before dispatch"))));
  }
}

void Batcher::sweep_expired() {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t before = queue_.size();
  expire_stale_locked(std::chrono::steady_clock::now());
  if (queue_.size() != before && obs::timing_enabled()) {
    obs_.queue_depth.set(static_cast<std::int64_t>(queue_.size()));
  }
}

std::vector<Request> Batcher::next_batch(int limit) {
  const int cap = std::max(1, std::min(limit, opts_.max_batch));
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [&] { return closed_ || !queue_.empty(); });
    expire_stale_locked(std::chrono::steady_clock::now());
    if (queue_.empty()) {
      if (closed_) return {};  // drained: the shutdown signal
      continue;                // everything that woke us had already expired
    }
    if (!closed_ && static_cast<int>(queue_.size()) < cap &&
        opts_.max_delay_us > 0) {
      // Wait for the batch to fill, but never past the oldest request's
      // dispatch deadline. New arrivals can fill the batch early; close()
      // wakes us.
      const auto deadline = queue_.front().enqueued +
                            std::chrono::microseconds(opts_.max_delay_us);
      cv_.wait_until(lock, deadline, [&] {
        return closed_ || static_cast<int>(queue_.size()) >= cap;
      });
      // The fill wait may have outlived some requests' deadlines.
      expire_stale_locked(std::chrono::steady_clock::now());
    }
    std::vector<Request> out;
    while (!queue_.empty() && static_cast<int>(out.size()) < cap) {
      out.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    if (obs::timing_enabled()) {
      obs_.queue_depth.set(static_cast<std::int64_t>(queue_.size()));
      const auto now = std::chrono::steady_clock::now();
      for (Request& r : out) r.popped = now;
    }
    if (!out.empty() || closed_) return out;
    // Every queued request expired while we were forming the batch; a live
    // server must keep waiting (an empty return means shutdown).
  }
}

std::vector<Request> Batcher::take_ready(int limit) {
  const int cap = std::max(1, std::min(limit, opts_.max_batch));
  std::lock_guard<std::mutex> lock(mu_);
  expire_stale_locked(std::chrono::steady_clock::now());
  std::vector<Request> out;
  while (!queue_.empty() && static_cast<int>(out.size()) < cap) {
    out.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  if (obs::timing_enabled()) {
    obs_.queue_depth.set(static_cast<std::int64_t>(queue_.size()));
    const auto now = std::chrono::steady_clock::now();
    for (Request& r : out) r.popped = now;
  }
  return out;
}

void Batcher::close() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  cv_.notify_all();
}

bool Batcher::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

std::size_t Batcher::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

std::uint64_t Batcher::shed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shed_;
}

std::uint64_t Batcher::expired() const {
  std::lock_guard<std::mutex> lock(mu_);
  return expired_;
}

}  // namespace distconv::serve
