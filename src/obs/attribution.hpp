#pragma once

// Step-time attribution (§ observability). The runtime has exactly one
// blocking point — Mailbox::wait — so a rank's step decomposes exactly:
//
//   compute        = wall − blocked_total      (rank thread making progress)
//   exposed comm   = blocked_total − tail      (waits inside fwd/bwd)
//   completion tail = blocked time inside the end-of-backward gradient
//                     drain (marked by TailPhase)
//
// The three terms sum to the wall clock by construction. Waits are
// categorized by the active OpScope wait label (halo / shuffle /
// gradreduce / other) so the exposed term can be split further without
// any plumbing through the collectives.
//
// Everything here is thread-local and lock-free; obs depends only on
// support, so comm/core/serve can include it freely.

#include <cstdint>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace distconv::obs {

/// True when either metrics or tracing collection is on — the gate every
/// instrumentation site checks before touching the clock.
inline bool timing_enabled() {
  return metrics::enabled() || trace::enabled();
}

enum class WaitCategory : int { kHalo = 0, kShuffle, kGradReduce, kOther };
constexpr int kWaitCategories = 4;

/// Classify a blocking wait by the label of the op that issued it
/// (OpScope::wait_label(): "halo-exchange", "shuffle", "allreduce-rd",
/// "gradreduce", ...). Only "gradreduce" — the obs label Model gives its
/// gradient-completion ops — is kGradReduce.
WaitCategory classify_wait(const char* label);

/// Per-thread blocked-time totals, monotonically increasing. Snapshot at
/// two points and subtract to attribute an interval.
struct WaitTotals {
  std::uint64_t ns[kWaitCategories] = {0, 0, 0, 0};
  std::uint64_t tail_ns = 0;
  std::uint64_t waits = 0;
  std::uint64_t total_ns() const {
    return ns[0] + ns[1] + ns[2] + ns[3];
  }
};

/// The calling thread's cumulative totals (stable reference).
const WaitTotals& thread_wait_totals();

/// Record a blocked interval observed in Mailbox::wait. `label` must be a
/// string literal (it is stored in the trace ring). Updates the
/// thread-local totals, the comm.wait.* counters, and — for waits longer
/// than ~10us — emits a trace event so short spins don't flood the ring.
void record_wait(const char* label, std::uint64_t ns);

/// Marks the gradient-completion drain at the end of backward: waits
/// recorded inside the scope also accrue to the tail term.
class TailPhase {
 public:
  TailPhase();
  ~TailPhase();
  TailPhase(const TailPhase&) = delete;
  TailPhase& operator=(const TailPhase&) = delete;

 private:
  bool prev_;
};
bool in_tail_phase();

/// Interned per-collective instruments, created once per call site via a
/// function-local static (see CollectiveScope): count, bytes moved, and
/// cumulative duration.
struct CollCounters {
  const char* name;
  metrics::Counter count;
  metrics::Counter bytes;
  metrics::Counter ns;
};

/// Returns the instruments for a blocking collective, interning
/// comm.coll.<name>.{count,bytes,ns} on first use. The returned reference
/// is stable for the process lifetime; `name` must be a string literal.
const CollCounters& coll_counters(const char* name);

/// Instruments for a nonblocking engine op label, interning
/// comm.op.<label>.{count,bytes,ns}. Keyed by pointer identity — pass the
/// same literal every time (NbOp::obs_label() does).
const CollCounters& op_counters(const char* label);

/// RAII instrumentation for one blocking collective call: bumps the
/// counters and emits a trace span (cat "coll") with bytes/rounds args.
class CollectiveScope {
 public:
  CollectiveScope(const CollCounters& cc, std::uint64_t bytes, int rounds) {
    if (timing_enabled()) {
      cc_ = &cc;
      bytes_ = bytes;
      rounds_ = rounds;
      t0_ = trace::now_ns();
    }
  }
  CollectiveScope(const CollectiveScope&) = delete;
  CollectiveScope& operator=(const CollectiveScope&) = delete;
  ~CollectiveScope();

 private:
  const CollCounters* cc_ = nullptr;
  std::uint64_t bytes_ = 0;
  int rounds_ = 0;
  std::int64_t t0_ = 0;
};

/// Record a retired nonblocking op (called from NbOp when the op completes):
/// comm.op.<label>.* plus a trace instant at retirement carrying the
/// in-flight duration, since a start..completion span would cross the
/// retiring thread's other spans.
void record_nb_op(const char* label, std::int64_t t0_ns, std::uint64_t bytes);

}  // namespace distconv::obs
