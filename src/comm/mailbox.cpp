#include "comm/mailbox.hpp"

#include <atomic>
#include <chrono>
#include <cstring>

#include "obs/attribution.hpp"
#include "support/env.hpp"
#include "support/error.hpp"

namespace distconv::comm {

namespace {

std::atomic<std::int64_t>& timeout_store() {
  static std::atomic<std::int64_t> value{comm_timeout_ms_from_env()};
  return value;
}

thread_local const char* t_op_label = nullptr;

}  // namespace

std::int64_t comm_timeout_ms_from_env() {
  return env_int("DC_COMM_TIMEOUT_MS", 0);
}

std::int64_t comm_timeout_ms() {
  return timeout_store().load(std::memory_order_relaxed);
}

void set_comm_timeout_ms(std::int64_t ms) {
  timeout_store().store(ms, std::memory_order_relaxed);
}

OpScope::OpScope(const char* name) : prev_(t_op_label) { t_op_label = name; }

OpScope::~OpScope() { t_op_label = prev_; }

const char* OpScope::current() {
  return t_op_label != nullptr ? t_op_label : "(unlabeled)";
}

void Mailbox::complete_locked(internal::PostedRecv& recv, const Envelope& env,
                              const void* data, std::size_t bytes) {
  DC_REQUIRE(bytes <= recv.capacity, "received message of ", bytes,
             " bytes exceeds posted receive capacity of ", recv.capacity,
             " (src=", env.src, " tag=", env.tag, ")");
  if (bytes > 0) std::memcpy(recv.buffer, data, bytes);
  recv.state->received_bytes = bytes;
  recv.state->matched = env;
  recv.state->done = true;
}

void Mailbox::deliver(const Envelope& env, const void* data, std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  // A dead world accepts no mail: once aborted, receivers are unwinding (or
  // gone) and their posted buffers may no longer exist, so late deliveries —
  // e.g. a fault-delayed send that outlived the failure — are dropped.
  if (aborted_) return;
  // Match the earliest posted receive compatible with this envelope.
  for (auto it = posted_.begin(); it != posted_.end(); ++it) {
    if (env.matches(it->pattern)) {
      complete_locked(*it, env, data, bytes);
      posted_.erase(it);
      cv_.notify_all();
      return;
    }
  }
  internal::StoredMessage msg;
  msg.env = env;
  msg.payload.resize(bytes);
  if (bytes > 0) std::memcpy(msg.payload.data(), data, bytes);
  unexpected_.push_back(std::move(msg));
  cv_.notify_all();
}

std::shared_ptr<internal::OpState> Mailbox::post_recv(const Envelope& pattern,
                                                      void* buffer,
                                                      std::size_t capacity) {
  auto state = std::make_shared<internal::OpState>();
  state->pattern = pattern;
  state->capacity = capacity;
  std::lock_guard<std::mutex> lock(mutex_);
  // Check unexpected messages first, in arrival order (non-overtaking).
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if (it->env.matches(pattern)) {
      internal::PostedRecv tmp{pattern, buffer, capacity, state};
      complete_locked(tmp, it->env, it->payload.data(), it->payload.size());
      unexpected_.erase(it);
      return state;
    }
  }
  posted_.push_back(internal::PostedRecv{pattern, buffer, capacity, state});
  return state;
}

void Mailbox::throw_aborted_locked() const {
  throw RankFailedError(
      distconv::internal::compose(
          "communication aborted",
          abort_rank_ >= 0 ? distconv::internal::compose(
                                 " by failure of world rank ", abort_rank_)
                           : std::string(),
          ": ", abort_reason_),
      abort_rank_);
}

void Mailbox::wait(const std::shared_ptr<internal::OpState>& state) {
  if (!state) return;  // already-complete (eager send) requests carry no state
  // The runtime's single blocking point: attribute the blocked interval to
  // the collective that issued it (OpScope label) so step time decomposes
  // into compute / exposed comm / completion tail. Zero-cost when obs is
  // off (one relaxed load).
  const bool timing = obs::timing_enabled();
  const std::int64_t t0 = timing ? obs::trace::now_ns() : 0;
  std::unique_lock<std::mutex> lock(mutex_);
  const auto ready = [&] { return state->done || aborted_; };
  const std::int64_t timeout = comm_timeout_ms();
  if (timeout <= 0) {
    cv_.wait(lock, ready);
  } else if (!cv_.wait_for(lock, std::chrono::milliseconds(timeout), ready)) {
    // Watchdog: the wait outlived the deadline with neither a matching
    // delivery nor a world abort — this rank is hung. Withdraw the posted
    // receive (its buffer dies with the unwinding stack) and raise with
    // everything we know; World::run's failure-propagation path then aborts
    // every other mailbox so the remaining ranks raise promptly too.
    cancel_locked(state);
    const Envelope& p = state->pattern;
    throw CommTimeoutError(
        distconv::internal::compose(
            "communication watchdog: ", OpScope::current(),
            " timed out after ", timeout, " ms waiting for recv(src=",
            p.src == kAnySource ? std::string("any") : std::to_string(p.src),
            ", tag=", p.tag, ", context=", p.context, ", up to ",
            state->capacity, " bytes outstanding); DC_COMM_TIMEOUT_MS=",
            timeout),
        timeout);
  }
  if (!state->done && aborted_) {
    cancel_locked(state);
    throw_aborted_locked();
  }
  if (timing) {
    if (timeout > 0) {
      static const obs::metrics::Counter arms =
          obs::metrics::counter("comm.watchdog.arms");
      arms.inc();
    }
    obs::record_wait(OpScope::current(),
                     static_cast<std::uint64_t>(obs::trace::now_ns() - t0));
  }
}

bool Mailbox::test(const std::shared_ptr<internal::OpState>& state) {
  if (!state) return true;
  std::lock_guard<std::mutex> lock(mutex_);
  if (!state->done && aborted_) {
    cancel_locked(state);
    throw_aborted_locked();
  }
  return state->done;
}

void Mailbox::cancel(const std::shared_ptr<internal::OpState>& state) {
  if (!state) return;
  std::lock_guard<std::mutex> lock(mutex_);
  cancel_locked(state);
}

void Mailbox::cancel_locked(const std::shared_ptr<internal::OpState>& state) {
  for (auto it = posted_.begin(); it != posted_.end(); ++it) {
    if (it->state == state) {
      posted_.erase(it);
      return;
    }
  }
}

void Mailbox::abort(int source_rank, const std::string& reason) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!aborted_) {  // first failure wins; later aborts keep its identity
    aborted_ = true;
    abort_rank_ = source_rank;
    // Bound the copied reason: it is re-composed into every waiter's error.
    abort_reason_ = reason.substr(0, 512);
    if (obs::timing_enabled()) {
      static const obs::metrics::Counter aborts =
          obs::metrics::counter("comm.aborts");
      aborts.inc();
      obs::trace::emit_instant("mailbox-abort", "fault");
    }
  }
  cv_.notify_all();
}

bool Mailbox::aborted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return aborted_;
}

void Mailbox::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  unexpected_.clear();
  posted_.clear();
  aborted_ = false;
  abort_rank_ = -1;
  abort_reason_.clear();
}

}  // namespace distconv::comm
