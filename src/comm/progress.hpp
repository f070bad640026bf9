// Communication progress engine: keeps in-flight nonblocking collectives
// advancing *while* compute kernels run, instead of only at the explicit
// progress points between layers.
//
// A ProgressEngine wraps a CollectiveEngine behind a mutex so a background
// driver can legally share it with the owning rank thread. Two drivers exist,
// selected by `DC_COMM_PROGRESS`:
//
//   thread — a dedicated progress thread (started lazily, shared by every
//     engine in the process: the in-process analogue of an MPI async-progress
//     thread, one "communication core" serving all simulated ranks) sweeps
//     the registered engines and advances whichever are not being driven by
//     their own rank at that moment.
//   hooks — no extra thread; instead the kernel runtime's parallel_for fires
//     a hook at every chunk boundary (support/parallel.hpp) and the hook
//     sweeps the registry, so progress rides the compute threads themselves.
//   off — no background driver; the engine behaves exactly like a bare
//     CollectiveEngine (progress only at the owner's explicit calls).
//
// Background progression never changes results: each op's partner schedule
// and per-element reduction order are fixed at construction, so advancing an
// op from another thread only moves *when* the same arithmetic happens.
// Background errors (e.g. a world abort observed from the driver) are
// captured and rethrown on the owning rank's next engine call.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "comm/nonblocking.hpp"

namespace distconv::comm {

enum class ProgressMode { kOff, kThread, kHooks };

/// DC_COMM_PROGRESS: "thread" (default), "hooks", or "off"/"0"/"false".
ProgressMode progress_mode_from_env();

const char* to_string(ProgressMode mode);

/// Thread-safe CollectiveEngine that background drivers may advance. The
/// owning rank thread enqueues and drains; the driver selected by `mode`
/// opportunistically progresses in-flight rounds in between (try-lock only,
/// so it never delays the owner).
class ProgressEngine {
 public:
  explicit ProgressEngine(ProgressMode mode = progress_mode_from_env());
  ~ProgressEngine();
  ProgressEngine(const ProgressEngine&) = delete;
  ProgressEngine& operator=(const ProgressEngine&) = delete;

  ProgressMode mode() const { return mode_; }

  /// Take ownership of op; returns its ticket for drain_until().
  std::uint64_t enqueue(std::unique_ptr<NbOp> op);

  /// Nonblocking advance from the owner; true when the queue is empty.
  bool progress();

  /// Block until every enqueued op has completed.
  void drain();

  /// Block until the given ticket's op (and everything ahead of it) is done.
  void drain_until(std::uint64_t ticket);

  bool idle() const;
  std::size_t pending_ops() const;

  /// Ops retired by background drivers (progress thread or hooks) rather
  /// than by the owner's own calls — observability for tests and benches.
  std::uint64_t background_completions() const {
    return background_completions_.load(std::memory_order_relaxed);
  }

  /// Driver entry point: advance if the engine is free and has work; never
  /// blocks and never throws (errors are stored for the owner). Returns true
  /// when there was in-flight work to look at.
  bool try_progress_background() noexcept;

 private:
  void rethrow_background_error_locked();

  mutable std::mutex mutex_;
  CollectiveEngine engine_;
  std::exception_ptr background_error_;  ///< guarded by mutex_
  std::atomic<std::uint64_t> background_completions_{0};
  ProgressMode mode_;
};

}  // namespace distconv::comm
