// Per-rank mailbox: an MPI-like matching engine.
//
// Senders deliver eagerly (payload copied into the mailbox); receivers either
// match an already-delivered message or post a receive that a later delivery
// completes. Matching follows MPI semantics: (context, source, tag) with
// wildcards, non-overtaking order per (context, source, tag).
//
// The mailbox is also the runtime's single blocking point, which makes it the
// natural home of the communication watchdog: every blocking collective, p2p
// wait and progress-engine drain funnels into Mailbox::wait, so one deadline
// there (DC_COMM_TIMEOUT_MS) converts *any* communication hang — a lost
// message, a stalled rank, a dropped fault-injected packet — into a typed
// CommTimeoutError carrying what the rank was blocked on. Paired with the
// world-wide abort path (a failing rank wakes every mailbox with its
// identity, so waiters raise RankFailedError promptly instead of
// deadlocking), faults surface on all ranks within one timeout.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "comm/types.hpp"

namespace distconv::comm {

/// Watchdog deadline for blocking communication waits, in milliseconds;
/// <= 0 disables the watchdog (the default). Seeded once from
/// DC_COMM_TIMEOUT_MS, overridable at runtime for tests and embedders.
std::int64_t comm_timeout_ms();
/// Reads DC_COMM_TIMEOUT_MS now: 0 when unset or empty; throws an Error
/// naming the variable unless it is a non-negative integer.
std::int64_t comm_timeout_ms_from_env();
void set_comm_timeout_ms(std::int64_t ms);

/// RAII watchdog override: sets the deadline for a scope and restores the
/// previous value on exit (tests must not leak a tight deadline into later
/// suites).
class CommTimeoutGuard {
 public:
  explicit CommTimeoutGuard(std::int64_t ms) : prev_(comm_timeout_ms()) {
    set_comm_timeout_ms(ms);
  }
  ~CommTimeoutGuard() { set_comm_timeout_ms(prev_); }
  CommTimeoutGuard(const CommTimeoutGuard&) = delete;
  CommTimeoutGuard& operator=(const CommTimeoutGuard&) = delete;

 private:
  std::int64_t prev_;
};

/// Labels the communication operation the calling thread is inside, so a
/// watchdog timeout can say *what* was hung ("allreduce", "halo-refresh")
/// rather than just which receive. Scopes nest; the innermost label wins.
class OpScope {
 public:
  explicit OpScope(const char* name);
  ~OpScope();
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

  /// The calling thread's current label ("(unlabeled)" outside any scope).
  static const char* current();

 private:
  const char* prev_;
};

namespace internal {

/// Completion state shared between a Request handle and the mailbox.
struct OpState {
  bool done = false;
  std::size_t received_bytes = 0;
  Envelope matched;  ///< envelope of the matched message (receives only)
  // Watchdog diagnostics: what this receive is waiting for.
  Envelope pattern;          ///< (context, src, tag) the receive matches
  std::size_t capacity = 0;  ///< posted receive capacity (bytes outstanding)
};

struct PostedRecv {
  Envelope pattern;
  void* buffer = nullptr;
  std::size_t capacity = 0;
  std::shared_ptr<OpState> state;
};

struct StoredMessage {
  Envelope env;
  std::vector<std::byte> payload;
};

}  // namespace internal

class Mailbox {
 public:
  Mailbox() = default;
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Deliver a message to this mailbox (called from the sender's thread).
  void deliver(const Envelope& env, const void* data, std::size_t bytes);

  /// Post a nonblocking receive; returns shared completion state.
  std::shared_ptr<internal::OpState> post_recv(const Envelope& pattern, void* buffer,
                                               std::size_t capacity);

  /// Block until the given operation completes. Throws RankFailedError on
  /// world abort, CommTimeoutError when the wait outlives comm_timeout_ms().
  void wait(const std::shared_ptr<internal::OpState>& state);

  /// Nonblocking completion check. Throws RankFailedError on world abort.
  bool test(const std::shared_ptr<internal::OpState>& state);

  /// Withdraw a posted receive that has not matched yet (no-op for completed
  /// or unknown operations). Called when a receive's buffer is about to die —
  /// a Request dropped during exception unwind — so a late delivery (e.g. a
  /// fault-delayed send arriving after its receiver already raised) can never
  /// write through a dangling pointer.
  void cancel(const std::shared_ptr<internal::OpState>& state);

  /// Wake all waiters with an abort indication. `source_rank` / `reason`
  /// identify the failure that killed the world (they end up in the
  /// RankFailedError every waiter raises); the zero-argument form keeps the
  /// historical anonymous abort.
  void abort(int source_rank, const std::string& reason);
  void abort() { abort(-1, "another rank raised an error"); }

  bool aborted() const;

  /// Return the mailbox to its freshly-constructed state: clears queued and
  /// posted messages and the abort latch. Only legal between World::run
  /// sessions (no rank thread may be blocked here) — the recovery path uses
  /// it to reuse a world after a fault.
  void reset();

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<internal::StoredMessage> unexpected_;
  std::list<internal::PostedRecv> posted_;
  bool aborted_ = false;
  int abort_rank_ = -1;       ///< world rank whose failure aborted the world
  std::string abort_reason_;  ///< its error message (truncated)

  [[noreturn]] void throw_aborted_locked() const;
  void cancel_locked(const std::shared_ptr<internal::OpState>& state);

  static void complete_locked(internal::PostedRecv& recv, const Envelope& env,
                              const void* data, std::size_t bytes);
};

}  // namespace distconv::comm
